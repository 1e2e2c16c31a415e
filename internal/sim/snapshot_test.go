package sim

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/nn"
	"repro/internal/racebuild"
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
			want, wantPages := refKNN(mod.Tree(), tc.pois, q, k, b)
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

// daemonModule is the store the daemon serves in CI and in the benchmark's
// serve workloads: 50,000 POIs at the paper's fan-out.
func daemonModule() (*ServerModule, geom.Rect) {
	bounds := geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(20000, 20000)}
	return NewServerModule(RandomPOIs(50000, bounds, rand.New(rand.NewSource(1))), 30), bounds
}

// sweepQueries is the 64 positions one steady-state sweep over daemonModule
// queries from.
func sweepQueries() []geom.Point {
	rng := rand.New(rand.NewSource(2))
	qs := make([]geom.Point, 64)
	for i := range qs {
		qs[i] = geom.Pt(rng.Float64()*20000, rng.Float64()*20000)
	}
	return qs
}

// The index costs at most 24 bytes per POI on top of the POI table itself:
// a 20-byte leaf slot in leaves packed to 29.8 of their 31 slots, plus inner
// nodes and the node table (DESIGN.md §16). Grown by insertion, at ~70 %
// fill, it was 31.2; while nodes owned entry slices and leaves boxed a copy
// of every POI, about 140.
func TestIndexBytesPerPOI(t *testing.T) {
	mod, _ := daemonModule()
	n := int64(len(mod.POIs()))
	index, table := mod.Bytes()
	if table != 24*n {
		t.Errorf("POI table is %d bytes, want 24 per POI", table)
	}
	perPOI := float64(index) / float64(n)
	if perPOI > 24 {
		t.Errorf("index costs %.1f B per POI beyond the table, budget 24", perPOI)
	}
	t.Logf("%d POIs: index %.1f B/POI, table 24 B/POI", n, perPOI)
}

// What a daemon connection does per request — kNN and Range into its own
// scratch slice — allocates nothing once the pooled iterator, the pooled hit
// scratch and the slice have grown; neither does a refused Range.
func TestSnapshotQuerierSteadyStateAllocs(t *testing.T) {
	if racebuild.Enabled() {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	mod, _ := daemonModule()
	sq := NewSnapshotQuerier(mod)
	qs := sweepQueries()
	var dst []core.POI
	for _, tc := range []struct {
		name string
		op   func(q geom.Point)
	}{
		{"KNN", func(q geom.Point) {
			dst, _ = sq.KNN(q, 20, nn.Bounds{}, dst)
		}},
		{"KNN bounded", func(q geom.Point) {
			dst, _ = sq.KNN(q, 20, nn.Bounds{Lower: 150, HasLower: true, Upper: 900, HasUpper: true}, dst)
		}},
		{"RangeInto", func(q geom.Point) {
			var ok bool
			if dst, ok = sq.RangeInto(q, 300, 4096, dst); !ok || len(dst) == 0 {
				t.Fatalf("Range(300) at %v: %d hits, ok=%v", q, len(dst), ok)
			}
		}},
		{"RangeInto refused", func(q geom.Point) {
			var ok bool
			if dst, ok = sq.RangeInto(q, 40000, 4096, dst); ok {
				t.Fatalf("whole-map Range at %v was not refused", q)
			}
		}},
	} {
		all := func() {
			for _, q := range qs {
				tc.op(q)
			}
		}
		all() // grow the scratch
		if allocs := testing.AllocsPerRun(10, all); allocs != 0 {
			t.Errorf("%s allocates %v objects per %d queries in steady state, want 0", tc.name, allocs, len(qs))
		}
	}
}

// A Range whose disc holds more POIs than the caller will accept stops at
// the first hit past the limit: it reports the refusal, returns nothing, and
// has read a number of pages set by the limit — not the whole tree, which is
// what the same radius costs without one.
func TestRangeIntoStopsAtLimit(t *testing.T) {
	mod, bounds := daemonModule()
	q := bounds.Center()
	diagonal := bounds.Min.Dist(bounds.Max)

	mod.ResetStats()
	all := mod.Range(q, diagonal)
	allPages := mod.PageAccesses()
	if len(all) != len(mod.POIs()) {
		t.Fatalf("whole-map Range returned %d of %d POIs", len(all), len(mod.POIs()))
	}

	const limit = 4096
	mod.ResetStats()
	out, ok := mod.RangeInto(q, diagonal, limit, make([]core.POI, 0, 8))
	if ok || len(out) != 0 {
		t.Fatalf("whole-map RangeInto(limit %d): ok=%v with %d POIs, want a refusal with none", limit, ok, len(out))
	}
	// Every point is a hit, so a visited leaf yields at least the minimum
	// fill (40 % of 30) and the search ends within (limit+1)/12 leaves, the
	// inner nodes above them, and one root-to-leaf path.
	leaves := int64(limit+1)/12 + 1
	if got, bound := mod.PageAccesses(), leaves+leaves/12+int64(mod.Tree().Height()); got > bound {
		t.Errorf("refused Range read %d pages, bound %d", got, bound)
	} else {
		t.Logf("refused Range read %d pages; unlimited, %d", got, allPages)
	}
	if mod.Queries() != 1 {
		t.Errorf("refused Range counted %d queries, want 1", mod.Queries())
	}

	// At and just under the hit count: the limit is inclusive, and an
	// accepted answer is Range's, order included.
	near := mod.Range(q, 600)
	if len(near) < 10 {
		t.Fatalf("Range(600) found only %d POIs", len(near))
	}
	got, ok := mod.RangeInto(q, 600, len(near), nil)
	if !ok || !slices.Equal(got, near) {
		t.Errorf("RangeInto(limit = hit count): ok=%v, %d POIs, want Range's %d", ok, len(got), len(near))
	}
	if got, ok := mod.RangeInto(q, 600, len(near)-1, nil); ok || len(got) != 0 {
		t.Errorf("RangeInto(limit = hit count - 1): ok=%v with %d POIs, want a refusal", ok, len(got))
	}
}

// BenchmarkKNN and BenchmarkRange measure the two query types a daemon
// connection serves, over the daemon-sized store and through the same pooled
// SnapshotQuerier path; one op is a sweep of 64 positions. The CI bench job
// gates allocs/op at zero on both.
func benchmarkSweep(b *testing.B, op func(sq *SnapshotQuerier, q geom.Point, dst []core.POI) []core.POI) {
	mod, _ := daemonModule()
	sq := NewSnapshotQuerier(mod)
	qs := sweepQueries()
	var dst []core.POI
	sweep := func() {
		for _, q := range qs {
			dst = op(sq, q, dst)
		}
	}
	sweep() // grow the scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep()
	}
}

func BenchmarkKNN(b *testing.B) {
	b.Run("n=50k", func(b *testing.B) {
		benchmarkSweep(b, func(sq *SnapshotQuerier, q geom.Point, dst []core.POI) []core.POI {
			dst, _ = sq.KNN(q, 16, nn.Bounds{}, dst)
			return dst
		})
	})
}

func BenchmarkRange(b *testing.B) {
	b.Run("n=50k/r=300", func(b *testing.B) {
		benchmarkSweep(b, func(sq *SnapshotQuerier, q geom.Point, dst []core.POI) []core.POI {
			dst, _ = sq.RangeInto(q, 300, 4096, dst)
			return dst
		})
	})
}
