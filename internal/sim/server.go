package sim

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

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
// The tree stores each POI's point and its row number in pois; an answer is
// pois[ref], and the index holds no second copy of a POI.
//
// KNN, KNNInto, Range and RangeInto are safe for concurrent use: the tree is
// read-only after construction and the stats are atomic, so the
// query-resolve phase of the simulator may call them from many workers at
// once. Mutating calls (ResetStats) must not overlap with queries.
type ServerModule struct {
	tree *rtree.Tree
	pois []core.POI
	// rangeHits pools RangeInto's *[]rangeHit scratch.
	rangeHits sync.Pool

	// Stats.
	queries      atomic.Int64
	pageAccesses atomic.Int64
}

// NewServerModule indexes the POIs in an R*-tree of the given fan-out, packed
// top-down (rtree.Build; DESIGN.md §4 D7). It is the one place an index is
// built: the daemon, the simulator and the experiment drivers all serve the
// tree it returns, so a page count means the same thing in each.
func NewServerModule(pois []core.POI, fanout int) *ServerModule {
	t := rtree.Build(fanout, len(pois), func(i int) geom.Point { return pois[i].Loc })
	return &ServerModule{tree: t, pois: pois, rangeHits: sync.Pool{New: func() any { return new([]rangeHit) }}}
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
		dst = append(dst, s.pois[r.Ref])
	}
	pages := it.Pages()
	s.pageAccesses.Add(pages)
	return dst, pages
}

// Range implements core.RangeServer: every POI within Euclidean distance r
// of q in ascending distance order, ties broken by POI ID.
func (s *ServerModule) Range(q geom.Point, r float64) []core.POI {
	out, _ := s.RangeInto(q, r, math.MaxInt, nil)
	return out
}

// rangeHit is a POI inside a range query's disc, before ordering.
type rangeHit struct {
	dist float64
	ref  int32
}

// RangeInto is Range into dst[:0] with a hit cap: an R*-tree window search
// over the disc's bounding box, an exact distance filter, and the nodes the
// search visited counted as page accesses. When the disc holds more than
// limit POIs the search stops at hit limit+1 and ok is false, before
// anything is copied or sorted: a caller that would refuse an oversized
// answer never pays for collecting one. Steady state allocates nothing.
func (s *ServerModule) RangeInto(q geom.Point, r float64, limit int, dst []core.POI) (out []core.POI, ok bool) {
	s.queries.Add(1)
	scratch := s.rangeHits.Get().(*[]rangeHit)
	hits := (*scratch)[:0]
	pages := s.tree.Search(geom.NewCircle(q, r).Bounds(), func(p geom.Point, ref int32) bool {
		if d := q.Dist(p); d <= r+geom.Eps {
			hits = append(hits, rangeHit{dist: d, ref: ref})
		}
		return len(hits) <= limit
	})
	s.pageAccesses.Add(pages)
	dst = dst[:0]
	if ok = len(hits) <= limit; ok {
		// Equal distances are a real occurrence on gridded data; break the
		// tie by POI ID so the hit order is a total order independent of the
		// R*-tree's internal layout (the same rule the INE path uses).
		slices.SortFunc(hits, func(a, b rangeHit) int {
			return cmp.Or(cmp.Compare(a.dist, b.dist), cmp.Compare(s.pois[a.ref].ID, s.pois[b.ref].ID))
		})
		for _, h := range hits {
			dst = append(dst, s.pois[h.ref])
		}
	}
	*scratch = hits
	s.rangeHits.Put(scratch)
	return dst, ok
}

// POIs returns the indexed POI set.
func (s *ServerModule) POIs() []core.POI { return s.pois }

// Bytes returns the memory of the R*-tree and of the POI table it indexes.
func (s *ServerModule) Bytes() (index, table int64) {
	return s.tree.Bytes(), int64(len(s.pois)) * int64(unsafe.Sizeof(core.POI{}))
}

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
