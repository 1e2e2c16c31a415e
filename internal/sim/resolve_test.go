package sim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/wire"
)

// warmResolveWorld builds a dense world and pushes query batches through it
// until the peer caches are widely populated, so peer-solved resolutions are
// common and every scratch buffer has reached its steady-state capacity.
func warmResolveWorld(tb testing.TB) *World {
	cfg := smallConfig()
	cfg.NumHosts = 600
	w, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	e := w.qengine
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 6; round++ {
		e.plans = e.plans[:0]
		for i := 0; i < 400; i++ {
			e.plans = append(e.plans, queryPlan{
				at:   float64(i),
				host: int32(rng.Intn(len(w.pos))),
				k:    w.cfg.KMin + rng.Intn(w.cfg.KMax-w.cfg.KMin+1),
			})
		}
		e.runBatch()
		w.advanceMovement(30)
	}
	return w
}

// peerSolvedPlans scans the warmed world for up to want queries that resolve
// without the server, covering both the single-peer and (when the population
// produces one) the multi-peer verification path.
func peerSolvedPlans(tb testing.TB, w *World, want int) []queryPlan {
	e := w.qengine
	sc := e.scratch[0]
	var plans []queryPlan
	for hi := 0; hi < len(w.pos) && len(plans) < want; hi++ {
		for _, k := range []int{w.cfg.KMin, w.cfg.KMax} {
			p := queryPlan{host: int32(hi), k: k}
			sc.r.ResetArena()
			res := e.resolve(&p, sc)
			if res.src == core.SolvedBySinglePeer || res.src == core.SolvedByMultiPeer {
				plans = append(plans, p)
				break
			}
		}
	}
	if len(plans) == 0 {
		tb.Fatal("warmed world produced no peer-solved queries; warm-up broken")
	}
	return plans
}

// TestResolveAllocsPeerSolved is the zero-allocation regression gate for the
// resolve hot path: once the per-worker scratch (peer slice, heap, verifier
// region, POI arena) is warm, resolving a peer-solved batch must not touch
// the allocator at all.
func TestResolveAllocsPeerSolved(t *testing.T) {
	w := warmResolveWorld(t)
	plans := peerSolvedPlans(t, w, 32)
	e := w.qengine
	sc := e.scratch[0]
	resolveAll := func() {
		sc.r.ResetArena() // the batch-start reset runBatch performs
		for i := range plans {
			e.resolve(&plans[i], sc)
		}
	}
	resolveAll() // warm the scratch capacities
	if allocs := testing.AllocsPerRun(50, resolveAll); allocs != 0 {
		t.Errorf("peer-solved resolve path allocates %v objects per batch, want 0", allocs)
	}
}

// linearGather is the independent reference for simPeerSource.Gather: no
// grid, no Cover — every host of the world is tested against the paper's
// definition of a peer (another host within TxRange that holds a cache
// entry), and the survivors are ordered by (cell index, host index), the
// enumeration order the simulation's determinism contract fixes.
func linearGather(w *World, host int32) (peers []core.PeerCache, msgs, bytes int64) {
	q := w.pos[host]
	var in []int32
	for h := range w.pos {
		if int32(h) != host && q.Dist(w.pos[h]) <= w.cfg.TxRange {
			in = append(in, int32(h))
		}
	}
	// Hosts were visited ascending, so a stable sort by cell leaves each
	// cell's hosts ascending.
	sort.SliceStable(in, func(i, j int) bool {
		return w.grid.CellIndex(w.pos[in[i]]) < w.grid.CellIndex(w.pos[in[j]])
	})
	msgs, bytes = 1, int64(wire.CacheRequestSize)
	var arena cache.Arena
	for _, h := range in {
		if ent, ok := w.caches.Entry(int(h), &arena); ok {
			peers = append(peers, ent)
			msgs++
			bytes += int64(wire.CacheShareSize(len(ent.Neighbors)))
		}
	}
	return peers, msgs, bytes
}

// TestGatherMatchesLinearScan is the gather oracle at the data level: on a
// moving world stepped by hand, with cache commits between steps, every
// planned query's Gather must return exactly the (peers, msgs, bytes) of
// linearGather. Every 25th step the batch is dense instead — every host of
// the most crowded cell queries at once, so the four resolve workers sweep
// the same cells concurrently (the case -race watches) — and the parallel
// batch must reproduce a sequential resolve of the same plans.
func TestGatherMatchesLinearScan(t *testing.T) {
	cfg := smallConfig()
	cfg.NumHosts = 600
	cfg.QueryWorkers = 4
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := w.qengine
	sc := e.scratch[0]
	rng := rand.New(rand.NewSource(3))
	peersSeen := 0
	for step := 0; step < 200; step++ {
		w.advanceMovement(0.25)
		e.plans = e.plans[:0]
		if step%25 == 24 {
			perCell := make([]int, w.grid.NumCells())
			crowded := int32(0)
			for _, c := range w.cells {
				perCell[c]++
				if perCell[c] > perCell[crowded] {
					crowded = c
				}
			}
			for h, c := range w.cells {
				if c == crowded {
					e.plans = append(e.plans, queryPlan{at: float64(step), host: int32(h), k: cfg.KMax})
				}
			}
			if len(e.plans) < 8 {
				t.Fatalf("step %d: most crowded cell holds %d hosts, want a batch of >= 8 sharing a cell", step, len(e.plans))
			}
		} else {
			for i := 0; i < 12; i++ {
				e.plans = append(e.plans, queryPlan{
					at:   float64(step),
					host: int32(rng.Intn(len(w.pos))),
					k:    cfg.KMin + rng.Intn(cfg.KMax-cfg.KMin+1),
				})
			}
		}
		type outcome struct {
			src                core.Source
			msgs, bytes, pages int64
		}
		want := make([]outcome, len(e.plans))
		for i := range e.plans {
			p := &e.plans[i]
			sc.peerSrc.host = p.host
			got, gotMsgs, gotBytes := sc.peerSrc.Gather(w.pos[p.host], nil)
			ref, refMsgs, refBytes := linearGather(w, p.host)
			if !reflect.DeepEqual(got, ref) || gotMsgs != refMsgs || gotBytes != refBytes {
				t.Fatalf("step %d plan %d (host %d): gather %d peers/%d msgs/%d bytes, linear scan %d/%d/%d",
					step, i, p.host, len(got), gotMsgs, gotBytes, len(ref), refMsgs, refBytes)
			}
			peersSeen += len(ref)
			sc.r.ResetArena()
			r := e.resolve(p, sc)
			want[i] = outcome{r.src, r.msgs, r.bytes, r.pages}
		}
		// Resolve on four workers and commit, so caches fill between steps.
		e.runBatch()
		for i, r := range e.results {
			if got := (outcome{r.src, r.msgs, r.bytes, r.pages}); got != want[i] {
				t.Fatalf("step %d plan %d: parallel batch resolved %+v, sequential %+v", step, i, got, want[i])
			}
		}
	}
	if peersSeen == 0 {
		t.Fatal("no query ever had a peer in range; the comparison is vacuous")
	}
}

// BenchmarkResolve measures the resolve hot path in isolation (no commit):
// a peer-solved batch and a server-solved batch (the EINN fallback through
// the pooled tree iterator). The CI bench job runs it with -benchmem and
// gates allocs/op at zero on both paths.
func BenchmarkResolve(b *testing.B) {
	w := warmResolveWorld(b)
	e := w.qengine
	sc := e.scratch[0]
	run := func(plans []queryPlan) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sc.r.ResetArena()
				for j := range plans {
					e.resolve(&plans[j], sc)
				}
			}
		}
	}
	b.Run("peersolved", run(peerSolvedPlans(b, w, 64)))
	b.Run("serversolved", run(serverSolvedPlans(b, w, 64)))
}
