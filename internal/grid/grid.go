// Package grid is the repository's one uniform grid: the cell layout over a
// rectangular area (Geom) and the dense bucket index built on it (Index).
// Everything that needs "what lies within r of p" outside the R*-tree — the
// simulator's host grid and static point grid, the daemon's session
// directory, the road graph's node index — is a client of this package, so
// cell assignment, neighborhood anchoring and table sizing are decided in
// exactly one place.
package grid

import (
	"math"
	"sync"

	"repro/internal/geom"
)

// MaxCellsPerAxis bounds the table (nx*ny cells) whatever cell size is
// requested: New widens the cell until neither axis exceeds it.
const MaxCellsPerAxis = 512

// Geom cuts a rectangular area into nx×ny square cells, numbered row-major.
// Positions outside the area are clamped into the border cells.
type Geom struct {
	origin geom.Point
	cell   float64
	inv    float64 // 1/cell: cell assignment is a multiply, not a divide
	nx, ny int
}

// New builds the layout over bounds with the requested cell side. The cell
// is widened to respect MaxCellsPerAxis on both axes (either a wide or a
// tall area could otherwise blow up its axis's count), a non-positive cell
// becomes 1, and degenerate bounds collapse to a single cell.
func New(bounds geom.Rect, cell float64) Geom {
	w, h := bounds.Width(), bounds.Height()
	minCell := w / MaxCellsPerAxis
	if m := h / MaxCellsPerAxis; m > minCell {
		minCell = m
	}
	if cell < minCell {
		cell = minCell
	}
	if cell <= 0 {
		cell = 1
	}
	// Ceil, not trunc+1: an area that is an exact multiple of the cell must
	// not carry a dead extra row and column. A position at exactly the far
	// edge lands in raw cell nx and is clamped into the border cell, same as
	// any other out-of-range position.
	nx := int(math.Ceil(w / cell))
	if nx < 1 {
		nx = 1
	}
	ny := int(math.Ceil(h / cell))
	if ny < 1 {
		ny = 1
	}
	return Geom{origin: bounds.Min, cell: cell, inv: 1 / cell, nx: nx, ny: ny}
}

// Cell returns the effective cell side (the requested one unless widened).
func (g Geom) Cell() float64 { return g.cell }

// NX returns the number of cells per row.
func (g Geom) NX() int { return g.nx }

// NY returns the number of rows.
func (g Geom) NY() int { return g.ny }

// NumCells returns the table size nx*ny.
func (g Geom) NumCells() int { return g.nx * g.ny }

// CellIndex files p into a cell, clamping out-of-bounds positions into the
// border cells. The truncating int() is deliberate: it runs once per moving
// host per step, and truncation differs from flooring only on (-1, 0), which
// the clamp sends to cell 0 either way.
func (g Geom) CellIndex(p geom.Point) int32 {
	cx := clamp(int((p.X-g.origin.X)*g.inv), g.nx)
	cy := clamp(int((p.Y-g.origin.Y)*g.inv), g.ny)
	return int32(cy*g.nx + cx)
}

// clamp pins v into [0, n-1].
func clamp(v, n int) int {
	if v < 0 {
		return 0
	}
	if v >= n {
		return n - 1
	}
	return v
}

// RawCell returns the unclamped cell coordinates of p — the anchor Cover
// derives a neighborhood from. The division floors: a point just left of or
// below the origin lands in raw cell -1 and must not alias the in-bounds
// points of cell 0, so two points share a RawCell exactly when Cover returns
// the same rectangle for both (the contract the simulator's per-cell gather
// snapshots rely on).
func (g Geom) RawCell(p geom.Point) (cx, cy int) {
	return int(math.Floor((p.X - g.origin.X) * g.inv)), int(math.Floor((p.Y - g.origin.Y) * g.inv))
}

// Cover returns the inclusive cell rectangle that contains CellIndex(x) for
// every x within r of any point whose RawCell is (cx, cy). An out-of-range
// anchor is clamped onto the border cells first — CellIndex files
// out-of-bounds positions there, so an out-of-bounds query must look there
// too — and the rectangle is clipped to the table; it is never empty.
// Enumerating it row by row (y0..y1, then x0..x1) is the row-major
// neighborhood order every client's determinism depends on.
func (g Geom) Cover(cx, cy int, r float64) (x0, y0, x1, y1 int) {
	cx, cy = clamp(cx, g.nx), clamp(cy, g.ny)
	reach := int(r/g.cell) + 1
	return clamp(cx-reach, g.nx), clamp(cy-reach, g.ny), clamp(cx+reach, g.nx), clamp(cy+reach, g.ny)
}

// Index is a Geom plus its occupancy in CSR form: cell c owns
// Entries[Start[c]:Start[c+1]], item indices ascending within each bucket.
// Because cells are numbered row-major, the cells x0..x1 of one row own one
// contiguous run of Entries (Row), so a Cover rectangle is read as y1-y0+1
// slices.
type Index struct {
	Geom
	Start   []int32 // bucket boundaries, len NumCells()+1
	Entries []int32 // item indices
}

// NewIndex allocates an empty index over bounds for n items; Build fills it.
func NewIndex(bounds geom.Rect, cell float64, n int) Index {
	g := New(bounds, cell)
	return Index{Geom: g, Start: make([]int32, g.NumCells()+1), Entries: make([]int32, n)}
}

// NewPointIndex builds the index of a fixed point set: item i is pts[i].
func NewPointIndex(bounds geom.Rect, cell float64, pts []geom.Point) Index {
	ix := NewIndex(bounds, cell, len(pts))
	cells := make([]int32, len(pts))
	for i, p := range pts {
		cells[i] = ix.CellIndex(p)
	}
	ix.Build(cells)
	return ix
}

// Build recomputes the whole index from cells[i] = CellIndex of item i with
// a counting sort on the calling goroutine: every bucket lists its items in
// ascending index, whatever order produced the positions. len(cells) must
// equal len(Entries).
func (ix *Index) Build(cells []int32) {
	clear(ix.Start)
	Count(ix.Start[1:], cells)
	ix.Place(cells, 1)
}

// Count is the counting sort's count half: it adds cells' histogram to
// counts, one per item at counts[cell], so len(counts) must be NumCells().
// Histograms of disjoint runs of items add up, so the items may be counted
// chunk by chunk, or into several tables that are summed before Place. An
// Index's own table is Start[1:].
func Count(counts, cells []int32) {
	for _, c := range cells {
		counts[c]++
	}
}

// Place is the counting sort's place half. Start[1:] must hold the
// histogram of cells (Count) and Start[0] zero; Place fills Entries and
// leaves Start the bucket boundaries. The cell rows are cut into bands
// (at most one per row, at least one), each placed on its own goroutine —
// the first on the caller's, so at most bands goroutines run. Every band
// scans cells in ascending item order and writes only its own buckets and
// their Start slots, so the bands share no counter and every bucket comes
// out ascending whatever the band count.
func (ix *Index) Place(cells []int32, bands int) {
	start := ix.Start
	// Exclusive prefix sum: Start[c+1] becomes the first slot of bucket c,
	// the cursor its band advances; placing leaves it at the end of bucket
	// c, which is the start of bucket c+1.
	sum := int32(0)
	for c := 1; c < len(start); c++ {
		n := start[c]
		start[c] = sum
		sum += n
	}
	bands = max(1, min(bands, ix.ny))
	band := func(b int) { // rows [b*ny/bands, (b+1)*ny/bands)
		ix.placeBand(cells, int32(b*ix.ny/bands*ix.nx), int32((b+1)*ix.ny/bands*ix.nx))
	}
	var wg sync.WaitGroup
	for b := 1; b < bands; b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			band(b)
		}()
	}
	band(0)
	wg.Wait()
}

// placeBand files every item whose cell lies in [lo, hi), in ascending item
// order, at its bucket's cursor.
func (ix *Index) placeBand(cells []int32, lo, hi int32) {
	cursor, entries := ix.Start[1:], ix.Entries
	span := uint32(hi - lo)
	for i, c := range cells {
		if uint32(c-lo) < span {
			entries[cursor[c]] = int32(i)
			cursor[c]++
		}
	}
}

// Row returns the items filed in cells x0..x1 (inclusive) of row y, in cell
// order and ascending within each cell.
func (ix *Index) Row(y, x0, x1 int) []int32 {
	row := y * ix.nx
	return ix.Entries[ix.Start[row+x0]:ix.Start[row+x1+1]]
}
