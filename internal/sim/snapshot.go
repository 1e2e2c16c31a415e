package sim

import (
	"sync"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/nn"
	"repro/internal/rtree"
)

// SnapshotQuerier is the read-only query facade a network server (or any
// caller outside the world loop) mounts over a ServerModule. Inside the
// simulator the resolve phase hands each query worker its own nn.Iterator
// as scratch; outside it there is no fixed worker set, so the querier pools
// iterators instead. It is the same KNNInto traversal either way, and in
// steady state a KNN call allocates nothing beyond what the caller's dst
// slice needs.
//
// The querier is safe for unbounded concurrent use: the tree is read-only,
// the module's stats are atomic, and every traversal runs on a pooled
// iterator owned by exactly one call at a time.
type SnapshotQuerier struct {
	mod   *ServerModule
	iters sync.Pool
}

// NewSnapshotQuerier wraps mod with a pooled, concurrency-safe query path.
func NewSnapshotQuerier(mod *ServerModule) *SnapshotQuerier {
	return &SnapshotQuerier{
		mod: mod,
		iters: sync.Pool{
			New: func() any { return new(nn.Iterator[rtree.Node]) },
		},
	}
}

// KNN answers a kNN query under the §3.3 pruning bounds, appending the
// results to dst[:0] (whose backing array is reused) and returning the exact
// page accesses the traversal performed.
func (sq *SnapshotQuerier) KNN(q geom.Point, k int, b nn.Bounds, dst []core.POI) ([]core.POI, int64) {
	it := sq.iters.Get().(*nn.Iterator[rtree.Node])
	out, pages := sq.mod.KNNInto(q, k, b, it, dst)
	sq.iters.Put(it)
	return out, pages
}

// Range answers a range query: every POI within Euclidean distance r of q in
// ascending distance order, ties broken by POI ID.
func (sq *SnapshotQuerier) Range(q geom.Point, r float64) []core.POI {
	return sq.mod.Range(q, r)
}

// RangeInto is Range into dst[:0], refusing (ok false, nothing collected) a
// disc that holds more than limit POIs. Like KNN it is safe for concurrent
// use and allocates nothing in steady state.
func (sq *SnapshotQuerier) RangeInto(q geom.Point, r float64, limit int, dst []core.POI) ([]core.POI, bool) {
	return sq.mod.RangeInto(q, r, limit, dst)
}

// Module exposes the wrapped ServerModule for statistics.
func (sq *SnapshotQuerier) Module() *ServerModule { return sq.mod }
