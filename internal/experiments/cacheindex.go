package experiments

import (
	"slices"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/sim"
)

// newCacheIndex buckets a static synthetic peer-cache population into a
// uniform grid (sim.PointGrid — a grid.Index, like the simulator's host
// grid) and returns a range-lookup closure: every cache whose query
// location lies within radius of q, in ascending cache order. It replaces
// the O(#caches) per-query scans of the Figure 17 and disk-I/O workload
// generators (ROADMAP). The closure is safe for concurrent use: the grid is
// immutable and every call allocates its own result.
func newCacheIndex(caches []core.PeerCache, bounds geom.Rect, cell float64) func(q geom.Point, radius float64) []core.PeerCache {
	locs := make([]geom.Point, len(caches))
	for i, c := range caches {
		locs[i] = c.QueryLoc
	}
	grid := sim.NewPointGrid(locs, bounds, cell)
	return func(q geom.Point, radius float64) []core.PeerCache {
		var idx []int32
		grid.ForEachWithin(q, radius, func(i int32) { idx = append(idx, i) })
		slices.Sort(idx)
		out := make([]core.PeerCache, len(idx))
		for j, i := range idx {
			out[j] = caches[i]
		}
		return out
	}
}
