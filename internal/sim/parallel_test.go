package sim

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/geom"
)

func TestSplitRange(t *testing.T) {
	cases := []struct{ n, k int }{
		{0, 4}, {1, 4}, {3, 4}, {4, 4}, {5, 4}, {100, 7}, {121500, 8}, {10, 1}, {10, 0},
	}
	for _, c := range cases {
		shards := splitRange(c.n, c.k)
		lo := 0
		for _, sh := range shards {
			if sh[0] != lo {
				t.Fatalf("splitRange(%d,%d): shard starts at %d, want %d", c.n, c.k, sh[0], lo)
			}
			if sh[1] < sh[0] {
				t.Fatalf("splitRange(%d,%d): negative shard %v", c.n, c.k, sh)
			}
			lo = sh[1]
		}
		if lo != c.n {
			t.Fatalf("splitRange(%d,%d): covers [0,%d), want [0,%d)", c.n, c.k, lo, c.n)
		}
		if want := min(max(c.k, 1), max(c.n, 0)); c.n > 0 && len(shards) != want {
			t.Fatalf("splitRange(%d,%d): %d shards, want %d", c.n, c.k, len(shards), want)
		}
		// Near-equal: sizes differ by at most one.
		minSz, maxSz := c.n, 0
		for _, sh := range shards {
			sz := sh[1] - sh[0]
			minSz, maxSz = min(minSz, sz), max(maxSz, sz)
		}
		if c.n > 0 && maxSz-minSz > 1 {
			t.Fatalf("splitRange(%d,%d): shard sizes range %d..%d", c.n, c.k, minSz, maxSz)
		}
	}
}

// workerCounts is the sweep the determinism properties run over: sequential,
// even, prime (so construction chunks, grid bands and query shards split
// unevenly), and whatever the machine would default to.
func workerCounts() []int {
	counts := []int{1, 2, 7}
	if gm := runtime.GOMAXPROCS(0); gm > 1 {
		counts = append(counts, gm)
	}
	return counts
}

// TestWorldParallelDeterminism is the tentpole contract: a full World.Run
// produces bit-identical metrics and time series for every worker count, in
// both movement modes, and every construction and query worker it starts
// (QueryWorkers defaults to Workers) has exited when it returns.
func TestWorldParallelDeterminism(t *testing.T) {
	for _, mode := range []Mode{ModeRoadNetwork, ModeFreeMovement} {
		base := smallConfig()
		base.Mode = mode
		base.SeriesWindow = 60

		run := func(workers int) (Metrics, []WindowPoint) {
			cfg := base
			cfg.Workers = workers
			baseline := runtime.NumGoroutine()
			w, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m := w.Run()
			// A worker that has called wg.Done may not have exited yet.
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%v workers=%d: %d goroutines after Run, %d before", mode, workers, runtime.NumGoroutine(), baseline)
				}
			}
			return m, w.Series()
		}
		wantM, wantS := run(1)
		for _, workers := range workerCounts()[1:] {
			gotM, gotS := run(workers)
			if !reflect.DeepEqual(gotM, wantM) {
				t.Errorf("%v workers=%d: metrics diverged:\ngot:  %+v\nwant: %+v",
					mode, workers, gotM, wantM)
			}
			if !reflect.DeepEqual(gotS, wantS) {
				t.Errorf("%v workers=%d: series diverged", mode, workers)
			}
		}
	}
}

// TestWorldQueryParallelDeterminism is the query-pipeline counterpart of
// TestWorldParallelDeterminism: a full World.Run produces byte-identical
// metrics and time series for query workers 1, 4 and 8, in both movement
// modes. The comparison is on marshaled JSON bytes — the representation
// every figure writer ultimately derives from these numbers — so "bit
// identical" is checked literally, not through float equality semantics.
func TestWorldQueryParallelDeterminism(t *testing.T) {
	for _, mode := range []Mode{ModeRoadNetwork, ModeFreeMovement} {
		base := smallConfig()
		base.Mode = mode
		base.SeriesWindow = 60

		run := func(qworkers int) []byte {
			cfg := base
			cfg.QueryWorkers = qworkers
			w, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m := w.Run()
			data, err := json.Marshal(struct {
				Metrics Metrics
				Series  []WindowPoint
			}{m, w.Series()})
			if err != nil {
				t.Fatal(err)
			}
			return data
		}
		want := run(1)
		for _, qworkers := range []int{4, 8} {
			if got := run(qworkers); !bytes.Equal(got, want) {
				t.Errorf("%v queryworkers=%d: output diverged:\ngot:  %s\nwant: %s",
					mode, qworkers, got, want)
			}
		}
	}
}

// TestForNeighborsOrderAcrossWorkers pins the stronger property underneath
// the metrics contract: after identical movement histories, forNeighbors
// enumerates the exact same host-index sequence whatever worker count built
// the grid — not merely the same set.
func TestForNeighborsOrderAcrossWorkers(t *testing.T) {
	const steps = 25
	base := smallConfig()

	type probe struct {
		q geom.Point
		r float64
	}
	rng := rand.New(rand.NewSource(99))
	probes := make([]probe, 40)
	for i := range probes {
		probes[i] = probe{
			q: geom.Pt(rng.Float64()*base.AreaWidth, rng.Float64()*base.AreaHeight),
			r: base.TxRange * (0.2 + 2*rng.Float64()),
		}
	}

	enumerate := func(workers int) [][]int32 {
		cfg := base
		cfg.Workers = workers
		w, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < steps; s++ {
			w.advanceMovement(stepSeconds)
		}
		out := make([][]int32, len(probes))
		for i, p := range probes {
			w.grid.forNeighbors(p.q, p.r, func(h int32) {
				out[i] = append(out[i], h)
			})
		}
		// While here, assert the CSR invariant directly: every bucket holds
		// ascending host indices.
		g := w.grid
		for c := 0; c < g.NumCells(); c++ {
			bucket := g.Entries[g.Start[c]:g.Start[c+1]]
			for j := 1; j < len(bucket); j++ {
				if bucket[j] <= bucket[j-1] {
					t.Fatalf("workers=%d: cell %d bucket not ascending: %v", workers, c, bucket)
				}
			}
		}
		return out
	}

	want := enumerate(1)
	for _, workers := range workerCounts()[1:] {
		got := enumerate(workers)
		for i := range probes {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("workers=%d probe %d: enumeration order diverged:\ngot:  %v\nwant: %v",
					workers, i, got[i], want[i])
			}
		}
	}
}

// TestStepGridMatchesSequentialRebuild drives the movement step (the
// cell-crossing delta, applyDelta) on a world five construction workers
// built, and a sequential counting rebuild over the same relocation
// history, and requires the raw CSR arrays to come out identical.
func TestStepGridMatchesSequentialRebuild(t *testing.T) {
	cfg := smallConfig()
	cfg.Workers = 5
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := newHostGrid(cfg.Bounds(), cfg.NumHosts, cfg.TxRange)
	cells := make([]int32, cfg.NumHosts)
	for step := 0; step < 30; step++ {
		w.advanceMovement(stepSeconds)
		for i, p := range w.pos {
			cells[i] = ref.CellIndex(p)
		}
		ref.Build(cells)
		if !reflect.DeepEqual(w.grid.Start, ref.Start) {
			t.Fatalf("step %d: start arrays diverged", step)
		}
		if !reflect.DeepEqual(w.grid.Entries, ref.Entries) {
			t.Fatalf("step %d: entries arrays diverged", step)
		}
	}
}

// FuzzHostGridNeighbors fuzzes grid relocation against a brute-force O(n)
// scan: after two rebuilds (initial placement, then a partial relocation),
// forNeighbors must enumerate exactly the hosts whose cells fall in range —
// every host within r included, nobody enumerated twice, buckets ascending.
func FuzzHostGridNeighbors(f *testing.F) {
	f.Add(int64(1), uint16(100), float64(150))
	f.Add(int64(7), uint16(1), float64(0))
	f.Add(int64(42), uint16(500), float64(999))
	f.Add(int64(-3), uint16(64), float64(25))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, r float64) {
		if n == 0 || n > 2000 {
			return
		}
		if r < 0 || r > 5000 {
			return
		}
		const side = 1000.0
		bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(side, side))
		rng := rand.New(rand.NewSource(seed))
		g := newHostGrid(bounds, int(n), 100)

		pos := make([]geom.Point, n)
		cells := make([]int32, n)
		reindex := func() {
			for i, p := range pos {
				cells[i] = g.CellIndex(p)
			}
			g.Build(cells)
		}
		// Positions deliberately overflow the bounds a little so the clamp
		// path is part of the property.
		randPt := func() geom.Point {
			return geom.Pt(rng.Float64()*1.2*side-0.1*side, rng.Float64()*1.2*side-0.1*side)
		}
		for i := range pos {
			pos[i] = randPt()
		}
		reindex()
		for i := range pos { // relocate a random subset, as movement steps do
			if rng.Intn(2) == 0 {
				pos[i] = randPt()
			}
		}
		reindex()

		q := randPt()
		seen := make(map[int32]bool)
		var enum []int32
		g.forNeighbors(q, r, func(i int32) {
			if seen[i] {
				t.Fatalf("host %d enumerated twice", i)
			}
			seen[i] = true
			enum = append(enum, i)
		})
		// Brute force: every host within r of q must be enumerated (the grid
		// over-approximates, so enum may contain more).
		r2 := r * r
		for i, p := range pos {
			if q.Dist2(p) <= r2 && !seen[int32(i)] {
				t.Fatalf("host %d at dist2 %.1f <= %.1f missed", i, q.Dist2(p), r2)
			}
		}
		// And nothing outside the cell over-approximation: every enumerated
		// host's cell must lie in the Cover rectangle.
		cx, cy := g.RawCell(q)
		x0, y0, x1, y1 := g.Cover(cx, cy, r)
		for _, i := range enum {
			x, y := int(cells[i])%g.NX(), int(cells[i])/g.NX()
			if x < x0 || x > x1 || y < y0 || y > y1 {
				t.Fatalf("host %d enumerated from out-of-range cell %d", i, cells[i])
			}
		}
	})
}
