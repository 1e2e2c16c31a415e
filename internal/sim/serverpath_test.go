package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/nn"
)

// serverSolvedPlans scans the warmed world for up to want queries that fall
// through to the server, so the fallback path can be measured in isolation.
func serverSolvedPlans(tb testing.TB, w *World, want int) []queryPlan {
	e := w.qengine
	sc := e.scratch[0]
	var plans []queryPlan
	for hi := 0; hi < len(w.pos) && len(plans) < want; hi++ {
		p := queryPlan{host: int32(hi), k: w.cfg.KMax}
		e.plans = append(e.plans[:0], p)
		e.gatherCells()
		sc.r.ResetArena()
		if res := e.resolve(&p, 0, sc); res.src == core.SolvedByServer {
			plans = append(plans, p)
		}
	}
	if len(plans) == 0 {
		tb.Fatal("warmed world produced no server-solved queries")
	}
	return plans
}

// TestKNNIntoMatchesKNNCounted pins the pooled EINN traversal against the
// generic one: over many random queries and bound combinations, results and
// page counts must be identical — TreeIterator replicates Iterator's heap
// discipline and pruning exactly, it is not merely equivalent.
func TestKNNIntoMatchesKNNCounted(t *testing.T) {
	cfg := smallConfig()
	cfg.NumPOIs = 500
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := w.Server()
	rng := rand.New(rand.NewSource(8))
	var it nn.TreeIterator
	var dst []core.POI
	for trial := 0; trial < 400; trial++ {
		q := geom.Pt(rng.Float64()*cfg.AreaWidth, rng.Float64()*cfg.AreaHeight)
		k := rng.Intn(12) // includes k=0
		var b nn.Bounds
		if rng.Intn(2) == 0 {
			b.HasLower = true
			b.Lower = rng.Float64() * 300
		}
		if rng.Intn(2) == 0 {
			b.HasUpper = true
			b.Upper = b.Lower + rng.Float64()*1000
		}
		wantPOIs, wantPages := s.KNNCounted(q, k, b)
		gotPOIs, gotPages := s.KNNInto(q, k, b, &it, dst)
		dst = gotPOIs
		if len(wantPOIs) == 0 {
			wantPOIs = nil
		}
		var got []core.POI
		if len(gotPOIs) > 0 {
			got = append([]core.POI(nil), gotPOIs...)
		}
		if !reflect.DeepEqual(got, wantPOIs) {
			t.Fatalf("trial %d (k=%d, bounds %+v): results diverged\ngot:  %v\nwant: %v",
				trial, k, b, got, wantPOIs)
		}
		if gotPages != wantPages {
			t.Fatalf("trial %d (k=%d, bounds %+v): %d pages, want %d", trial, k, b, gotPages, wantPages)
		}
	}
}

// TestResolveAllocsServerSolved extends the zero-allocation gate to the
// server fallback: with the worker's pooled iterator and fetched-POI scratch
// warm, resolving a server-solved batch must not touch the allocator —
// previously every fallback built a fresh counted source, boxed tree nodes,
// and allocated a result slice per query.
func TestResolveAllocsServerSolved(t *testing.T) {
	w := warmResolveWorld(t)
	plans := serverSolvedPlans(t, w, 32)
	e := w.qengine
	sc := e.scratch[0]
	e.plans = append(e.plans[:0], plans...)
	e.gatherCells()
	resolveAll := func() {
		sc.r.ResetArena() // the batch-start reset runBatch performs
		for i := range plans {
			e.resolve(&plans[i], i, sc)
		}
	}
	resolveAll() // warm the scratch capacities
	if allocs := testing.AllocsPerRun(50, resolveAll); allocs != 0 {
		t.Errorf("server-solved resolve path allocates %v objects per batch, want 0", allocs)
	}
}

// TestGatherSnapshotReuse checks the dirty-cell machinery actually fires: in
// a world whose hosts are parked, only cache commits dirty cells, so the
// gather phase must reuse snapshots across steps.
func TestGatherSnapshotReuse(t *testing.T) {
	cfg := smallConfig()
	cfg.MovePercentage = 0
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.Run()
	hits, fills := w.GatherReuse()
	if fills == 0 {
		t.Fatal("no snapshot fills recorded; gather phase did not run")
	}
	if hits == 0 {
		t.Error("parked world produced no snapshot reuse; dirty-cell tracking broken")
	}
}
