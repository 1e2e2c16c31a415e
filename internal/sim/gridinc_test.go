package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
)

// deltaTrace drives a hostGrid through steps of randomized relocation via
// applyDelta while a reference grid is fully rebuilt (grid.Index.Build) from
// the same cell assignment, and requires the raw CSR arrays to stay
// byte-identical.
func deltaTrace(t *testing.T, seed int64, n, steps int, moveFrac float64) {
	t.Helper()
	const w, h = 3000.0, 2000.0
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(w, h))
	rng := rand.New(rand.NewSource(seed))
	g := newHostGrid(bounds, n, 250)
	ref := newHostGrid(bounds, n, 250)

	pos := make([]geom.Point, n)
	cells := make([]int32, n)
	randPt := func() geom.Point {
		// Overflow the bounds a little so border clamping is part of the
		// property, like FuzzHostGridNeighbors does.
		return geom.Pt(rng.Float64()*1.1*w-0.05*w, rng.Float64()*1.1*h-0.05*h)
	}
	for i := range pos {
		pos[i] = randPt()
		cells[i] = g.CellIndex(pos[i])
	}
	g.Build(cells)

	var movers []moverRec
	for step := 0; step < steps; step++ {
		movers = movers[:0]
		for i := range pos {
			if rng.Float64() >= moveFrac {
				continue
			}
			pos[i] = randPt()
			if c := g.CellIndex(pos[i]); c != cells[i] {
				movers = append(movers, moverRec{host: int32(i), from: cells[i], to: c})
				cells[i] = c
			}
		}
		g.applyDelta(cells, movers)
		ref.Build(cells)
		if !reflect.DeepEqual(g.Start, ref.Start) {
			t.Fatalf("step %d (%d movers): start arrays diverged", step, len(movers))
		}
		if !reflect.DeepEqual(g.Entries, ref.Entries) {
			t.Fatalf("step %d (%d movers): entries arrays diverged", step, len(movers))
		}
	}
}

// TestIncrementalGridMatchesFullRebuild is the tentpole oracle at the data-
// structure level, swept over move fractions from nobody-moved to
// everybody-moved.
func TestIncrementalGridMatchesFullRebuild(t *testing.T) {
	cases := []struct {
		name     string
		moveFrac float64
	}{
		{"none-moved", 0},
		{"sparse", 0.01},
		{"third", 0.33},
		{"all-moved", 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			deltaTrace(t, 11, 800, 40, tc.moveFrac)
		})
	}
}

// TestApplyDeltaSingleCellWorld exercises the degenerate geometry where every
// from and to collapses onto one cell: the delta is all self-moves filtered
// out by the movement phase, but a hand-built mover list must still be a
// no-op rather than corrupt the index. (The movement phase never emits
// from==to records; this pins applyDelta's behavior at the boundary anyway.)
func TestApplyDeltaSingleCellWorld(t *testing.T) {
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))
	g := newHostGrid(bounds, 4, 500) // one cell covers everything
	cells := []int32{0, 0, 0, 0}
	g.Build(cells)
	g.applyDelta(cells, nil)
	ref := newHostGrid(bounds, 4, 500)
	ref.Build(cells)
	if !reflect.DeepEqual(g.Entries, ref.Entries) || !reflect.DeepEqual(g.Start, ref.Start) {
		t.Fatal("empty delta changed the index")
	}
}

// FuzzApplyDelta fuzzes incremental maintenance against the counting rebuild
// over randomized populations, trace lengths and move fractions.
func FuzzApplyDelta(f *testing.F) {
	f.Add(int64(1), uint16(100), uint8(5), uint8(30))
	f.Add(int64(7), uint16(1), uint8(8), uint8(100))
	f.Add(int64(42), uint16(900), uint8(3), uint8(0))
	f.Add(int64(-9), uint16(64), uint8(12), uint8(75))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, steps, movePct uint8) {
		if n == 0 || n > 1500 {
			return
		}
		deltaTrace(t, seed, int(n), int(steps%16)+1, float64(movePct%101)/100)
	})
}
