package sim

import (
	"repro/internal/geom"
	"repro/internal/grid"
)

// hostGrid is the uniform-grid spatial index over mobile host positions,
// giving O(neighborhood) lookups of every host within the wireless
// transmission range. Cells are sized to the transmission range so a range
// query touches at most 25 cells.
//
// It is a grid.Index (cell layout plus CSR buckets, built once by New's
// pipelined counting sort: grid.Count per chunk, then Index.Place in bands)
// that applyDelta then patches every movement step from the moved-host
// delta. Either way every bucket lists its hosts in ascending host index,
// however many construction workers placed them, so a neighborhood
// enumerates a bit-identical sequence for any Config.Workers value — which
// is what keeps the gathered peer list, its message and byte accounting
// (and with it every simulation metric) independent of the construction's
// parallelism.
type hostGrid struct {
	grid.Index
	delta deltaScratch // scratch for incremental maintenance (gridinc.go)
}

// newHostGrid builds an index over bounds for n hosts with the given cell
// size (normally the transmission range).
func newHostGrid(bounds geom.Rect, n int, cell float64) *hostGrid {
	return &hostGrid{Index: grid.NewIndex(bounds, cell, n)}
}

// PointGrid is an immutable uniform-grid index over a fixed point set, built
// once on the same grid.Index as the simulator's host grid. The experiments
// package uses it to bucket the Figure 17 / disk-I/O synthetic peer caches,
// replacing their O(#caches) per-query scans.
type PointGrid struct {
	ix  grid.Index
	pts []geom.Point
}

// NewPointGrid indexes pts over bounds with the given cell size. The slice
// is retained; callers must not mutate it afterwards.
func NewPointGrid(pts []geom.Point, bounds geom.Rect, cell float64) *PointGrid {
	return &PointGrid{ix: grid.NewPointIndex(bounds, cell, pts), pts: pts}
}

// ForEachWithin invokes fn with the index of every point at distance <= r of
// p (exact filter, not the grid over-approximation). Enumeration is
// cell-major with ascending indices inside each cell; callers needing global
// index order must sort.
func (g *PointGrid) ForEachWithin(p geom.Point, r float64, fn func(i int32)) {
	r2 := r * r
	cx, cy := g.ix.RawCell(p)
	x0, y0, x1, y1 := g.ix.Cover(cx, cy, r)
	for y := y0; y <= y1; y++ {
		for _, i := range g.ix.Row(y, x0, x1) {
			if p.Dist2(g.pts[i]) <= r2 {
				fn(i)
			}
		}
	}
}
