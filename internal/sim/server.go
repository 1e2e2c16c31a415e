package sim

import (
	"math/rand"
	"sort"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/nn"
	"repro/internal/rtree"
)

// ServerModule is the remote spatial database of the simulated system: an
// R*-tree over the POI set queried with the EINN algorithm (best-first
// incremental NN extended with the client's pruning bounds). It counts
// queries and R*-tree node (page) accesses — the PAR metric. Every page
// count is the one its own traversal returned, so the total is exact under
// any mix of concurrent queries.
//
// KNN, KNNInto and Range are safe for concurrent use: the tree is read-only
// after construction and the stats are atomic, so the query-resolve phase
// of the simulator may call them from many workers at once. Mutating calls
// (ResetStats) must not overlap with queries.
type ServerModule struct {
	tree *rtree.Tree
	pois []core.POI

	// Stats.
	queries      atomic.Int64
	pageAccesses atomic.Int64
}

// NewServerModule indexes the POIs with the given R*-tree fan-out.
func NewServerModule(pois []core.POI, fanout int) *ServerModule {
	t := rtree.New(fanout)
	for _, p := range pois {
		t.InsertPoint(p.Loc, p)
	}
	return &ServerModule{tree: t, pois: pois}
}

// RandomPOIs generates n POIs uniformly distributed over bounds.
func RandomPOIs(n int, bounds geom.Rect, rng *rand.Rand) []core.POI {
	out := make([]core.POI, n)
	for i := range out {
		out[i] = core.POI{
			ID: int64(i),
			Loc: geom.Pt(
				bounds.Min.X+rng.Float64()*bounds.Width(),
				bounds.Min.Y+rng.Float64()*bounds.Height(),
			),
		}
	}
	return out
}

// ClusteredPOIs generates n POIs in Gaussian clusters, modeling real-world
// interest objects such as gas stations, which concentrate along arterials
// and in commercial pockets rather than spreading uniformly (the paper draws
// its POI sets from real station locations — DESIGN.md substitution D3).
// clusters is the number of pockets; sigma their standard deviation in
// meters. A uniform 20 % background is mixed in so no area is empty.
func ClusteredPOIs(n int, bounds geom.Rect, clusters int, sigma float64, rng *rand.Rand) []core.POI {
	if clusters < 1 {
		clusters = 1
	}
	centers := make([]geom.Point, clusters)
	for i := range centers {
		centers[i] = geom.Pt(
			bounds.Min.X+rng.Float64()*bounds.Width(),
			bounds.Min.Y+rng.Float64()*bounds.Height(),
		)
	}
	clamp := func(v, lo, hi float64) float64 {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	out := make([]core.POI, n)
	for i := range out {
		var p geom.Point
		if rng.Float64() < 0.2 {
			p = geom.Pt(
				bounds.Min.X+rng.Float64()*bounds.Width(),
				bounds.Min.Y+rng.Float64()*bounds.Height(),
			)
		} else {
			c := centers[rng.Intn(clusters)]
			p = geom.Pt(
				clamp(c.X+rng.NormFloat64()*sigma, bounds.Min.X, bounds.Max.X),
				clamp(c.Y+rng.NormFloat64()*sigma, bounds.Min.Y, bounds.Max.Y),
			)
		}
		out[i] = core.POI{ID: int64(i), Loc: p}
	}
	return out
}

// KNN implements core.Server: the k nearest POIs beyond the lower bound in
// ascending order, searched with EINN under the provided bounds.
func (s *ServerModule) KNN(q geom.Point, k int, b nn.Bounds) []core.POI {
	var it nn.Iterator[rtree.Node]
	out, _ := s.KNNInto(q, k, b, &it, nil)
	return out
}

// KNNInto is KNN with caller-owned scratch, plus the exact number of R*-tree
// node (page) accesses this one query performed: the EINN traversal runs
// through it and the results are appended to dst[:0], whose backing array is
// reused. In steady state the call performs no heap allocations, which is
// what keeps the simulator's server-resolved query path allocation-free
// alongside the peer-solved one (TestResolveAllocsServerSolved pins it). The
// count is the iterator's own, so it stays exact when many queries run
// concurrently — the resolve phase of the simulator commits these per-query
// counts in event order to keep metrics bit-identical for any worker count.
func (s *ServerModule) KNNInto(q geom.Point, k int, b nn.Bounds, it *nn.Iterator[rtree.Node], dst []core.POI) ([]core.POI, int64) {
	s.queries.Add(1)
	dst = dst[:0]
	if k <= 0 {
		// EINN performs no traversal at all for k <= 0 (not even the root
		// fetch), so no pages are counted.
		return dst, 0
	}
	it.Reset(s.tree, q, b)
	for len(dst) < k {
		r, ok := it.Next()
		if !ok {
			break
		}
		dst = append(dst, r.Data.(core.POI))
	}
	pages := it.Pages()
	s.pageAccesses.Add(pages)
	return dst, pages
}

// Range implements core.RangeServer: every POI within Euclidean distance r
// of q in ascending distance order, found with an R*-tree window search over
// the disc's bounding box followed by an exact distance filter. The nodes
// the search visited count as page accesses.
func (s *ServerModule) Range(q geom.Point, r float64) []core.POI {
	s.queries.Add(1)
	window := geom.NewCircle(q, r).Bounds()
	type hit struct {
		poi  core.POI
		dist float64
	}
	var hits []hit
	pages := s.tree.Search(window, func(rect geom.Rect, data any) bool {
		p := data.(core.POI)
		if d := q.Dist(p.Loc); d <= r+geom.Eps {
			hits = append(hits, hit{poi: p, dist: d})
		}
		return true
	})
	s.pageAccesses.Add(pages)
	// Equal distances are a real occurrence on gridded data; break the tie
	// by POI ID so the hit order is a total order independent of the
	// R*-tree's internal layout (the same rule the INE path uses).
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].dist != hits[j].dist {
			return hits[i].dist < hits[j].dist
		}
		return hits[i].poi.ID < hits[j].poi.ID
	})
	out := make([]core.POI, len(hits))
	for i, h := range hits {
		out[i] = h.poi
	}
	return out
}

// POIs returns the indexed POI set.
func (s *ServerModule) POIs() []core.POI { return s.pois }

// Tree exposes the underlying index for benchmark harnesses that compare
// INN against EINN on the same data.
func (s *ServerModule) Tree() *rtree.Tree { return s.tree }

// Queries returns the number of KNN and Range calls since the last reset.
func (s *ServerModule) Queries() int64 { return s.queries.Load() }

// PageAccesses returns the R*-tree node accesses accumulated by KNN and
// Range calls since the last reset.
func (s *ServerModule) PageAccesses() int64 { return s.pageAccesses.Load() }

// ResetStats zeroes the query and page-access counters. Must not run
// concurrently with queries.
func (s *ServerModule) ResetStats() {
	s.queries.Store(0)
	s.pageAccesses.Store(0)
}
