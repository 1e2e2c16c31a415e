package sim

import (
	"math/rand"
	"reflect"
	"testing"

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
			e.plans = append(e.plans[:0], p)
			e.gatherCells()
			sc.r.ResetArena()
			res := e.resolve(&p, 0, sc)
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
		t.Errorf("peer-solved resolve path allocates %v objects per batch, want 0", allocs)
	}
}

// TestBatchedGatherMatchesPerQuery is the spatial-join oracle at the data
// level: on a moving world driven step by step, every planned query's
// Gather — served from its cell's shared, possibly reused snapshot — must
// return exactly the (peers, msgs, bytes) a fresh per-query grid sweep
// computes from live state. The run is long enough that snapshots are both
// reused across steps and invalidated by movement and cache commits.
func TestBatchedGatherMatchesPerQuery(t *testing.T) {
	cfg := smallConfig()
	cfg.QueryWorkers = 4
	// A quarter of the hosts moving: enough parked neighborhoods that
	// snapshots survive between steps, enough traffic that most do not.
	cfg.MovePercentage = 0.25
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := w.qengine
	src := &e.scratch[0].peerSrc
	rng := rand.New(rand.NewSource(3))
	tx2 := cfg.TxRange * cfg.TxRange
	var hits, fills, peersSeen uint64
	for step := 0; step < 400; step++ {
		w.advanceMovement(0.25)
		e.plans = e.plans[:0]
		for i := 0; i < 12; i++ {
			e.plans = append(e.plans, queryPlan{
				at:   float64(step),
				host: int32(rng.Intn(len(w.pos))),
				k:    cfg.KMin + rng.Intn(cfg.KMax-cfg.KMin+1),
			})
		}
		h0, f0 := w.GatherReuse()
		e.gatherCells()
		h1, f1 := w.GatherReuse()
		hits, fills = hits+h1-h0, fills+f1-f0
		for i, p := range e.plans {
			q := w.pos[p.host]
			src.host, src.idx = p.host, i
			got, gotMsgs, gotBytes := src.Gather(q, nil)

			var want []core.PeerCache
			wantMsgs, wantBytes := int64(1), int64(wire.CacheRequestSize)
			w.grid.forNeighbors(q, cfg.TxRange, func(h int32) {
				if h == p.host || q.Dist2(w.pos[h]) > tx2 {
					return
				}
				if ent, ok := w.caches[h].Entry(); ok {
					want = append(want, ent)
					wantMsgs++
					wantBytes += int64(wire.CacheShareSize(len(ent.Neighbors)))
				}
			})
			if !reflect.DeepEqual(got, want) || gotMsgs != wantMsgs || gotBytes != wantBytes {
				t.Fatalf("step %d plan %d (host %d): snapshot gather %d peers/%d msgs/%d bytes, sweep %d/%d/%d",
					step, i, p.host, len(got), gotMsgs, gotBytes, len(want), wantMsgs, wantBytes)
			}
			peersSeen += uint64(len(want))
		}
		// Resolve and commit the batch so caches fill and commits dirty cells.
		// (runBatch re-validates the snapshots just gathered; only the
		// explicit gather above is counted.)
		e.runBatch()
	}
	if peersSeen == 0 {
		t.Fatal("no query ever had a peer in range; the comparison is vacuous")
	}
	if hits == 0 || fills == 0 {
		t.Errorf("gather reuse %d hits / %d fills: want both reuse and refills exercised", hits, fills)
	}
	if distinct := uint64(len(e.snaps)); fills <= distinct {
		t.Errorf("%d fills over %d distinct cells: no snapshot was ever invalidated and refilled", fills, distinct)
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
			e.plans = append(e.plans[:0], plans...)
			e.gatherCells()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sc.r.ResetArena()
				for j := range plans {
					e.resolve(&plans[j], j, sc)
				}
			}
		}
	}
	b.Run("peersolved", run(peerSolvedPlans(b, w, 64)))
	b.Run("serversolved", run(serverSolvedPlans(b, w, 64)))
}
