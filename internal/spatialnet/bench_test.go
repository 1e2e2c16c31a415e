package spatialnet

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/nn"
	"repro/internal/rtree"
)

// table4Grid is the road network every Table-4 (30×30 mi) simulation builds:
// experiments.BaseConfig's area at sim.Config's 500 m default spacing, with
// the promotions sim.New passes. (Those packages import this one, so the
// numbers are repeated here; the root TestSNNNExchangesPerQuery builds the
// same scene from BaseConfig itself.)
var table4Grid = GridConfig{Width: 30 * 1609.344, Height: 30 * 1609.344, Spacing: 500,
	SecondaryEvery: 5, HighwayEvery: 20}

// table4Scene is a Table-4 region as SNNN sees it: the road grid, nPOI
// uniform POIs behind an R*-tree (4,050 for Los Angeles, 2,160 for
// Riverside), and 64 uniform query points.
type table4Scene struct {
	g       *Graph
	pois    []core.POI
	tree    *rtree.Tree
	queries []geom.Point

	it  nn.Iterator[rtree.Node]
	buf []core.POI
}

func newTable4Scene(tb testing.TB, nPOI int) *table4Scene {
	g, err := GenerateGrid(table4Grid)
	if err != nil {
		tb.Fatal(err)
	}
	g.BuildNodeIndex()
	rng := rand.New(rand.NewSource(1))
	uniform := func() geom.Point {
		return geom.Pt(rng.Float64()*table4Grid.Width, rng.Float64()*table4Grid.Height)
	}
	s := &table4Scene{g: g, pois: make([]core.POI, nPOI), queries: make([]geom.Point, 64)}
	for i := range s.pois {
		s.pois[i] = core.POI{ID: int64(i), Loc: uniform()}
	}
	s.tree = rtree.Build(30, nPOI, func(i int) geom.Point { return s.pois[i].Loc })
	for i := range s.queries {
		s.queries[i] = uniform()
	}
	return s
}

// knn returns the n Euclidean NNs of q in a buffer reused across calls, so
// the allocations a benchmark reports are the search's own.
func (s *table4Scene) knn(q geom.Point, n int) []core.POI {
	s.it.Reset(s.tree, q, nn.NoBounds)
	s.buf = s.buf[:0]
	for len(s.buf) < n {
		r, ok := s.it.Next()
		if !ok {
			break
		}
		s.buf = append(s.buf, s.pois[r.Ref])
	}
	return s.buf
}

// BenchmarkSNNN runs 64 k=5 network queries per op on the Table-4 road grid.
// percandidate is Algorithm 2 as printed and as the package implemented it
// until the expansion: a fetch and a point-to-point search, both ends
// snapped by the every-edge scan, for every candidate. expansion is SNNN: one
// exchange returns what a C_Size-20 cache keeps, one bounded search prices
// every candidate, snaps go through the node grid. It allocates the result
// slice and the candidate closure per query, whatever the candidate count.
func BenchmarkSNNN(b *testing.B) {
	const k, cacheSize = 5, 20
	for _, region := range []struct {
		name string
		pois int
	}{{"LA", 4050}, {"Riverside", 2160}} {
		s := newTable4Scene(b, region.pois)
		pf := NewPathFinder(s.g)
		// query runs one SNNN query and returns the nodes it settled.
		run := func(name string, query func(q geom.Point, fetch FetchFunc) int, fetchAtLeast int) {
			b.Run(name+"/"+region.name, func(b *testing.B) {
				fetches, settles := 0, 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, q := range s.queries {
						settles += query(q, func(n int) []core.POI {
							fetches++
							return s.knn(q, max(n, fetchAtLeast))
						})
					}
				}
				perQuery := float64(b.N * len(s.queries))
				b.ReportMetric(float64(fetches)/perQuery, "fetches/query")
				if settles > 0 {
					b.ReportMetric(float64(settles)/perQuery, "settles/query")
				}
			})
		}
		run("percandidate", func(q geom.Point, fetch FetchFunc) int {
			snnnPerCandidate(s.g, q, k, fetch)
			return 0 // a search per candidate, each from scratch: not counted
		}, 0)
		run("expansion", func(q geom.Point, fetch FetchFunc) int {
			SNNN(pf, q, k, fetch)
			return pf.Settled()
		}, cacheSize)
	}
}

// BenchmarkSnap snaps 256 uniform points per op onto the Table-4 grid's
// 17,392 edges.
func BenchmarkSnap(b *testing.B) {
	s := newTable4Scene(b, 256)
	for _, form := range []struct {
		name string
		snap func(geom.Point) (SnapResult, bool)
	}{{"linear", s.g.snapLinear}, {"indexed", s.g.Snap}} {
		b.Run(form.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, p := range s.pois {
					form.snap(p.Loc)
				}
			}
		})
	}
}

// BenchmarkGenerateGrid builds the Table-4 road network: what every 30×30 mi
// road-mode sim.New pays before its first step.
func BenchmarkGenerateGrid(b *testing.B) {
	b.Run("30mi", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := GenerateGrid(table4Grid); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPathFinderShortestPath plans one route between random nodes of
// the Table-4 grid per op: the search allocates nothing, the returned path
// once.
func BenchmarkPathFinderShortestPath(b *testing.B) {
	g, err := GenerateGrid(table4Grid)
	if err != nil {
		b.Fatal(err)
	}
	pf := NewPathFinder(g)
	rng := newTestRand(1)
	pf.ShortestPath(0, NodeID(g.NumNodes()-1)) // grow the queue once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := NodeID(rng.Intn(g.NumNodes()))
		to := NodeID(rng.Intn(g.NumNodes()))
		pf.ShortestPath(from, to)
	}
}
