package grid

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/geom"
)

func rect(w, h float64) geom.Rect { return geom.NewRect(geom.Pt(0, 0), geom.Pt(w, h)) }

// TestNewSizing pins the table dimensions: exact multiples must not allocate
// a dead extra row/column, fractional fits round up, both axes respect
// MaxCellsPerAxis, and degenerate bounds or cell requests collapse to a
// usable grid rather than a 0×N one.
func TestNewSizing(t *testing.T) {
	for _, tc := range []struct {
		name   string
		bounds geom.Rect
		cell   float64
		nx, ny int // want; 0 = only check the cap and nx,ny >= 1
	}{
		{"exact multiple", rect(1000, 1000), 100, 10, 10},
		{"fractional fit rounds up", rect(1000, 1000), 300, 4, 4},
		{"wide", rect(2500, 400), 250, 10, 2},
		{"cell larger than area", rect(100, 100), 500, 1, 1},
		{"tiny cell is capped", rect(1000, 1000), 0.001, 0, 0},
		{"tall narrow area is capped on y", rect(100, 1_000_000), 1, 0, 0},
		{"wide flat area is capped on x", rect(1_000_000, 100), 1, 0, 0},
		{"zero cell widens to the cap", rect(10, 10), 0, 512, 512},
		{"negative cell widens to the cap", rect(10, 10), -5, 512, 512},
		{"empty bounds", geom.Rect{}, 0, 1, 1},
		{"point bounds", geom.Rect{Min: geom.Pt(5, 5), Max: geom.Pt(5, 5)}, 0, 1, 1},
		{"zero-height bounds", rect(1, 0), 0, 512, 1},
	} {
		g := New(tc.bounds, tc.cell)
		if g.NX() < 1 || g.NY() < 1 || g.NX() > MaxCellsPerAxis || g.NY() > MaxCellsPerAxis {
			t.Errorf("%s: %dx%d cells, want each axis in [1, %d]", tc.name, g.NX(), g.NY(), MaxCellsPerAxis)
		}
		if tc.nx != 0 && (g.NX() != tc.nx || g.NY() != tc.ny) {
			t.Errorf("%s: %dx%d cells, want %dx%d", tc.name, g.NX(), g.NY(), tc.nx, tc.ny)
		}
		if g.NumCells() != g.NX()*g.NY() || !(g.Cell() > 0) {
			t.Errorf("%s: NumCells %d, Cell %v", tc.name, g.NumCells(), g.Cell())
		}
	}
}

// TestCellAssignment pins CellIndex (clamped) and RawCell (flooring, not
// clamped) on the points where they differ. int() truncates toward zero, so
// a truncating RawCell would fold the out-of-bounds band (-cell, 0) onto raw
// cell 0 and hand points on either side of the origin one neighborhood.
func TestCellAssignment(t *testing.T) {
	g := New(rect(1000, 1000), 100)
	for _, tc := range []struct {
		p      geom.Point
		cx, cy int   // RawCell
		idx    int32 // CellIndex
	}{
		{geom.Pt(0, 0), 0, 0, 0},
		{geom.Pt(0.5, 0.5), 0, 0, 0},        // in-bounds side of the origin
		{geom.Pt(-0.5, -0.5), -1, -1, 0},    // the aliasing band itself
		{geom.Pt(-150, 50), -2, 0, 0},       // a full cell below the origin
		{geom.Pt(-100, -100), -1, -1, 0},    // exact negative boundary floors up
		{geom.Pt(250, -0.001), 2, -1, 2},    // barely below: still raw row -1
		{geom.Pt(100, 100), 1, 1, 11},       // exact interior boundary
		{geom.Pt(999.999, 0), 9, 0, 9},      // last interior cell
		{geom.Pt(1000, 1000), 10, 10, 99},   // far corner clamps into the border cell
		{geom.Pt(1050, 1150), 10, 11, 99},   // beyond the far edge keeps counting raw
		{geom.Pt(1e9, -1e9), 1e7, -1e7, 9},  // far out: clamped per axis
		{geom.Pt(-1e9, 1e9), -1e7, 1e7, 90}, // and the opposite corner
	} {
		cx, cy := g.RawCell(tc.p)
		if cx != tc.cx || cy != tc.cy {
			t.Errorf("RawCell(%v) = (%d,%d), want (%d,%d)", tc.p, cx, cy, tc.cx, tc.cy)
		}
		if idx := g.CellIndex(tc.p); idx != tc.idx {
			t.Errorf("CellIndex(%v) = %d, want %d", tc.p, idx, tc.idx)
		}
	}
}

// TestCoverAnchorClamp pins the out-of-range anchor rule and the clip: an
// anchor outside the table is moved onto the border cell before the reach is
// applied, so a far-out query still covers the border cells that hold the
// far-out (clamped) positions.
func TestCoverAnchorClamp(t *testing.T) {
	g := New(rect(1000, 800), 100) // 10x8
	for _, tc := range []struct {
		cx, cy         int
		r              float64
		x0, y0, x1, y1 int
	}{
		{5, 4, 0, 4, 3, 6, 5},         // r=0 still reaches one cell each way
		{5, 4, 250, 2, 1, 8, 7},       // reach = int(250/100)+1 = 3
		{5, 4, 100, 3, 2, 7, 6},       // exact multiple: reach 2
		{0, 0, 50, 0, 0, 1, 1},        // clipped at the origin corner
		{-7, 3, 50, 0, 2, 1, 4},       // left of the table: anchored at column 0
		{12, 99, 50, 8, 6, 9, 7},      // beyond the far corner: anchored at (9,7)
		{-100, -100, 1e6, 0, 0, 9, 7}, // huge radius covers the table, no more
	} {
		x0, y0, x1, y1 := g.Cover(tc.cx, tc.cy, tc.r)
		if x0 != tc.x0 || y0 != tc.y0 || x1 != tc.x1 || y1 != tc.y1 {
			t.Errorf("Cover(%d,%d,%g) = [%d,%d]x[%d,%d], want [%d,%d]x[%d,%d]",
				tc.cx, tc.cy, tc.r, x0, x1, y0, y1, tc.x0, tc.x1, tc.y0, tc.y1)
		}
	}
}

// checkCover is the property behind every range lookup in the repository:
// with items filed by CellIndex, the Cover rectangle anchored at RawCell(p)
// reaches every item within r of p — wherever p and the items lie relative
// to the area — and reading it with Row lists each item of those cells
// exactly once, cells row-major and indices ascending within a cell.
func checkCover(t *testing.T, seed int64, w, h, cell, r float64, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	bounds := geom.NewRect(geom.Pt(-w/3, h/7), geom.Pt(-w/3+w, h/7+h))
	randPt := func() geom.Point { // up to 20% outside the area on every side
		return geom.Pt(bounds.Min.X+(rng.Float64()*1.4-0.2)*w, bounds.Min.Y+(rng.Float64()*1.4-0.2)*h)
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = randPt()
	}
	ix := NewPointIndex(bounds, cell, pts)

	// CSR: every index once, in its own cell's bucket, ascending.
	if got := int(ix.Start[ix.NumCells()]); ix.Start[0] != 0 || got != n {
		t.Fatalf("Start spans [%d,%d], want [0,%d]", ix.Start[0], got, n)
	}
	seen := make([]bool, n)
	for c := 0; c < ix.NumCells(); c++ {
		bucket := ix.Entries[ix.Start[c]:ix.Start[c+1]]
		for j, i := range bucket {
			if seen[i] || ix.CellIndex(pts[i]) != int32(c) || (j > 0 && bucket[j-1] >= i) {
				t.Fatalf("cell %d bucket %v: item %d duplicated, misfiled or out of order", c, bucket, i)
			}
			seen[i] = true
		}
	}

	for probe := 0; probe < 8; probe++ {
		p := randPt()
		cx, cy := ix.RawCell(p)
		x0, y0, x1, y1 := ix.Cover(cx, cy, r)
		if x0 < 0 || y0 < 0 || x1 >= ix.NX() || y1 >= ix.NY() || x0 > x1 || y0 > y1 {
			t.Fatalf("Cover(%v, r=%g) = [%d,%d]x[%d,%d] on a %dx%d table", p, r, x0, x1, y0, y1, ix.NX(), ix.NY())
		}
		// Same RawCell => same rectangle (the snapshot-sharing contract):
		// the rectangle is a function of (cx, cy, r) by construction, so it
		// is enough that RawCell ignores where inside the cell p sits.
		centre := geom.Pt(bounds.Min.X+(float64(cx)+0.5)*ix.Cell(), bounds.Min.Y+(float64(cy)+0.5)*ix.Cell())
		if qx, qy := ix.RawCell(centre); qx != cx || qy != cy {
			t.Fatalf("centre of raw cell (%d,%d) maps to (%d,%d)", cx, cy, qx, qy)
		}
		var enum []int32
		for y := y0; y <= y1; y++ {
			enum = append(enum, ix.Row(y, x0, x1)...)
		}
		var want []int32 // the same cells, one bucket at a time
		for y := y0; y <= y1; y++ {
			for x := x0; x <= x1; x++ {
				c := y*ix.NX() + x
				want = append(want, ix.Entries[ix.Start[c]:ix.Start[c+1]]...)
			}
		}
		if len(enum) != len(want) {
			t.Fatalf("Row enumeration lists %d items, per-cell walk %d", len(enum), len(want))
		}
		inCover := make(map[int32]bool, len(enum))
		for j, i := range enum {
			if i != want[j] {
				t.Fatalf("Row enumeration diverges from the per-cell walk at %d: %d vs %d", j, i, want[j])
			}
			inCover[i] = true
		}
		for i, x := range pts {
			if p.Dist2(x) <= r*r && !inCover[int32(i)] {
				t.Fatalf("item %d at %v (cell %d) is within %g of %v but outside Cover [%d,%d]x[%d,%d]",
					i, x, ix.CellIndex(x), r, p, x0, x1, y0, y1)
			}
		}
	}
}

func TestCoverContainsEveryPointInRange(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w, h := 1+rng.Float64()*5000, 1+rng.Float64()*5000
		checkCover(t, seed, w, h, rng.Float64()*w/3, rng.Float64()*w/2, 1+rng.Intn(400))
	}
	// Grid-aligned and degenerate layouts.
	checkCover(t, 1, 1000, 1000, 100, 100, 300) // r an exact multiple of the cell
	checkCover(t, 2, 1000, 1000, 0, 50, 50)     // cell 0 -> 1, capped to 512 per axis
	checkCover(t, 3, 1e-9, 1e-9, 5, 1, 20)      // everything in one cell
}

func FuzzCover(f *testing.F) {
	f.Add(int64(1), 1000.0, 1000.0, 100.0, 150.0, uint16(100))
	f.Add(int64(7), 3000.0, 200.0, 0.0, 0.0, uint16(1))
	f.Add(int64(42), 10.0, 9000.0, 2.5, 999.0, uint16(500))
	f.Add(int64(-3), 640.0, 640.0, 10.0, 640.0, uint16(64))
	f.Fuzz(func(t *testing.T, seed int64, w, h, cell, r float64, n uint16) {
		if !(w > 0 && w < 1e6) || !(h > 0 && h < 1e6) || !(cell >= 0 && cell < 1e6) || !(r >= 0 && r < 1e6) {
			return
		}
		if n == 0 || n > 2000 {
			return
		}
		checkCover(t, seed, w, h, cell, r, int(n))
	})
}

// TestBuildMatchesStableSort holds the split counting sort to its
// definition: however the histogram is accumulated — in one Count, chunk by
// chunk, or into several tables summed afterwards — and however many bands
// Place cuts the rows into, from one to one more than there are rows,
// Entries must list the items stably sorted by cell and Start[c] must be
// the number of items in cells before c. The populations include every
// item in one cell, no items at all, a 1×1 grid and a one-row grid.
func TestBuildMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, tc := range []struct {
		name    string
		w, h    float64
		cell    float64
		n       int
		oneCell bool // every item in one cell
	}{
		{"square", 1000, 1000, 100, 2000, false},
		{"wide", 2500, 300, 100, 777, false},
		{"tall", 300, 2500, 100, 1001, false},
		{"sparse", 1000, 1000, 50, 37, false},
		{"one cell holds all", 1000, 1000, 100, 500, true},
		{"no items", 1000, 1000, 100, 0, false},
		{"1x1 grid", 100, 100, 500, 300, false},
		{"one row", 1000, 50, 100, 400, false},
	} {
		ix := NewIndex(rect(tc.w, tc.h), tc.cell, tc.n)
		cells := make([]int32, tc.n)
		shared := int32(rng.Intn(ix.NumCells()))
		for i := range cells {
			if tc.oneCell {
				cells[i] = shared
			} else {
				cells[i] = ix.CellIndex(geom.Pt(rng.Float64()*tc.w, rng.Float64()*tc.h))
			}
		}
		wantEntries := make([]int32, tc.n)
		for i := range wantEntries {
			wantEntries[i] = int32(i)
		}
		sort.SliceStable(wantEntries, func(a, b int) bool { return cells[wantEntries[a]] < cells[wantEntries[b]] })
		wantStart := make([]int32, ix.NumCells()+1)
		for c := range ix.NumCells() {
			wantStart[c+1] = wantStart[c]
			for _, k := range cells {
				if int(k) == c {
					wantStart[c+1]++
				}
			}
		}
		check := func(how string, bands int) {
			t.Helper()
			if !slices.Equal(ix.Start, wantStart) || !slices.Equal(ix.Entries, wantEntries) {
				t.Fatalf("%s (%dx%d cells, n=%d), %s, %d bands: Start %v Entries %v, want %v %v",
					tc.name, ix.NX(), ix.NY(), tc.n, how, bands, ix.Start, ix.Entries, wantStart, wantEntries)
			}
		}
		ix.Build(cells)
		check("Build", 1)
		for bands := 1; bands <= ix.NY()+1; bands++ {
			clear(ix.Start)
			Count(ix.Start[1:], cells)
			ix.Place(cells, bands)
			check("one Count", bands)

			// Counted chunk by chunk at random cut points, the chunks
			// spread over three tables that are summed before Place.
			clear(ix.Start)
			tables := [][]int32{ix.Start[1:], make([]int32, ix.NumCells()), make([]int32, ix.NumCells())}
			for lo := 0; lo < tc.n; {
				hi := min(tc.n, lo+1+rng.Intn(97))
				Count(tables[rng.Intn(len(tables))], cells[lo:hi])
				lo = hi
			}
			for _, tb := range tables[1:] {
				for c, k := range tb {
					ix.Start[c+1] += k
				}
			}
			ix.Place(cells, bands)
			check("chunked Count", bands)
		}
	}
}
