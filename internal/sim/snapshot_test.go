package sim

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/nn"
)

// latticePOIs places one POI on every point of an n×n integer lattice with
// the given pitch, so queries from lattice points see many exact distance
// ties — the case where heap discipline decides the answer order.
func latticePOIs(n int, pitch float64) []core.POI {
	out := make([]core.POI, 0, n*n)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			out = append(out, core.POI{ID: int64(len(out)), Loc: geom.Pt(float64(x)*pitch, float64(y)*pitch)})
		}
	}
	return out
}

// The pooled snapshot path must be observationally identical to the
// container/heap reference (refKNN): same POIs, same order (including
// distance ties), same page counts.
func TestSnapshotQuerierMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	bounds := geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(10000, 10000)}
	for _, tc := range []struct {
		name string
		pois []core.POI
		snap float64 // queries are rounded to multiples of snap (0: not at all)
	}{
		{"random", RandomPOIs(5000, bounds, rng), 0},
		{"lattice-ties", latticePOIs(70, 150), 150},
	} {
		mod := NewServerModule(tc.pois, 30)
		sq := NewSnapshotQuerier(mod)
		var dst []core.POI
		for trial := 0; trial < 300; trial++ {
			q := geom.Pt(rng.Float64()*12000-1000, rng.Float64()*12000-1000)
			if tc.snap > 0 {
				q = geom.Pt(math.Round(q.X/tc.snap)*tc.snap, math.Round(q.Y/tc.snap)*tc.snap)
			}
			k := 1 + rng.Intn(20)
			var b nn.Bounds
			if rng.Float64() < 0.4 {
				b.HasLower, b.Lower = true, rng.Float64()*300
			}
			if rng.Float64() < 0.4 {
				b.HasUpper, b.Upper = true, 200+rng.Float64()*2000
			}
			want, wantPages := refKNN(mod.Tree(), q, k, b)
			var pages int64
			dst, pages = sq.KNN(q, k, b, dst)
			if pages != wantPages {
				t.Fatalf("%s trial %d: pages %d, want %d", tc.name, trial, pages, wantPages)
			}
			if len(dst) != len(want) {
				t.Fatalf("%s trial %d: %d results, want %d", tc.name, trial, len(dst), len(want))
			}
			for i := range want {
				if dst[i].ID != want[i].ID ||
					math.Float64bits(dst[i].Loc.X) != math.Float64bits(want[i].Loc.X) ||
					math.Float64bits(dst[i].Loc.Y) != math.Float64bits(want[i].Loc.Y) {
					t.Fatalf("%s trial %d: result %d = %v, want %v", tc.name, trial, i, dst[i], want[i])
				}
			}
		}
	}
}

// Page accounting must be exact under any mix of concurrent traffic: a Range
// counts the nodes its own search visited, never the pages of the kNN queries
// running beside it. (Differencing a tree-wide counter around Range charged
// it for every concurrent traversal.)
func TestRangePagesExactUnderConcurrentKNN(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	bounds := geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(20000, 20000)}
	mod := NewServerModule(RandomPOIs(20000, bounds, rng), 30)
	sq := NewSnapshotQuerier(mod)
	const n, workers = 2000, 4
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*20000, rng.Float64()*20000)
	}
	ranges := func(lo, hi int) {
		for _, p := range pts[lo:hi] {
			sq.Range(p, 300)
		}
	}
	knns := func(lo, hi int) {
		var dst []core.POI
		for _, p := range pts[lo:hi] {
			dst, _ = sq.KNN(p, 10, nn.Bounds{}, dst)
		}
	}
	solo := func(f func(lo, hi int)) int64 {
		mod.ResetStats()
		f(0, n)
		return mod.PageAccesses()
	}
	rangeAlone, knnAlone := solo(ranges), solo(knns)
	if rangeAlone == 0 || knnAlone == 0 {
		t.Fatalf("degenerate workload: range %d pages, kNN %d pages", rangeAlone, knnAlone)
	}

	mod.ResetStats()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		for _, f := range []func(lo, hi int){ranges, knns} {
			wg.Add(1)
			go func(f func(lo, hi int)) {
				defer wg.Done()
				f(lo, hi)
			}(f)
		}
	}
	wg.Wait()
	if got, want := mod.PageAccesses(), rangeAlone+knnAlone; got != want {
		t.Errorf("concurrent Range ∥ kNN counted %d pages, want %d (= %d range + %d kNN alone)",
			got, want, rangeAlone, knnAlone)
	}
	if got := mod.Queries(); got != 2*n {
		t.Errorf("queries %d, want %d", got, 2*n)
	}
}

// Concurrent callers (the network server's connection goroutines) must each
// see exactly the answer a sequential caller computes, with no cross-talk
// through the pooled iterators.
func TestSnapshotQuerierConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	bounds := geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(5000, 5000)}
	mod := NewServerModule(RandomPOIs(2000, bounds, rng), 30)
	sq := NewSnapshotQuerier(mod)

	type trial struct {
		q    geom.Point
		k    int
		want []core.POI
	}
	const perWorker, workers = 200, 8
	trials := make([]trial, perWorker*workers)
	for i := range trials {
		q := geom.Pt(rng.Float64()*5000, rng.Float64()*5000)
		k := 1 + rng.Intn(10)
		want := mod.KNN(q, k, nn.Bounds{})
		trials[i] = trial{q: q, k: k, want: want}
	}

	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var dst []core.POI
			for i := w * perWorker; i < (w+1)*perWorker; i++ {
				tr := trials[i]
				dst, _ = sq.KNN(tr.q, tr.k, nn.Bounds{}, dst)
				if len(dst) != len(tr.want) {
					errs <- "result length changed under concurrency"
					return
				}
				for j := range tr.want {
					if dst[j].ID != tr.want[j].ID {
						errs <- "result changed under concurrency"
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}
