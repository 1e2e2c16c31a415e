package sim

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
)

// The decisive end-to-end soundness test: every single query answered during
// a full simulation — by one peer, by several, or by the server — must be
// the exact k nearest neighbors of the query point, byte-for-byte equal to a
// brute-force scan.
func TestEveryQueryAnswerIsExact(t *testing.T) {
	for _, mode := range []Mode{ModeRoadNetwork, ModeFreeMovement} {
		cfg := smallConfig()
		cfg.Mode = mode
		cfg.Duration = 300
		w, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pois := w.Server().POIs()
		audited, peerSolved := 0, 0
		w.SetAudit(func(q geom.Point, k int, answer []core.Candidate, src core.Source) {
			audited++
			if src != core.SolvedByServer {
				peerSolved++
			}
			// Brute-force ground truth.
			type hit struct {
				id int64
				d  float64
			}
			hits := make([]hit, len(pois))
			for i, p := range pois {
				hits[i] = hit{id: p.ID, d: q.Dist(p.Loc)}
			}
			sort.Slice(hits, func(i, j int) bool { return hits[i].d < hits[j].d })
			want := k
			if want > len(hits) {
				want = len(hits)
			}
			if len(answer) != want {
				t.Fatalf("mode %v: query at %v k=%d returned %d results, want %d (src %v)",
					mode, q, k, len(answer), want, src)
			}
			for i, a := range answer {
				if math.Abs(a.Dist-hits[i].d) > 1e-9 {
					t.Fatalf("mode %v: query at %v k=%d rank %d got dist %v want %v (src %v)",
						mode, q, k, i+1, a.Dist, hits[i].d, src)
				}
			}
		})
		m := w.Run()
		if audited == 0 {
			t.Fatalf("mode %v: audit never invoked", mode)
		}
		// The audit also fires during warm-up, so it sees at least the
		// recorded query count.
		if int64(audited) < m.TotalQueries {
			t.Fatalf("mode %v: audited %d < recorded %d", mode, audited, m.TotalQueries)
		}
		if peerSolved == 0 {
			t.Errorf("mode %v: no peer-solved queries audited; scenario too weak", mode)
		}
	}
}

// TestConcurrentResolutionMatchesSequentialOracle replays the identical
// simulation once with a sequential resolve phase and once with 8 query
// workers, recording every audited answer (in commit order), and requires
// the two answer streams to be identical — then checks each answer of the
// shared stream against a brute-force scan of the POI set. Together the two
// halves say: concurrency changes nothing, and what it doesn't change is
// correct.
func TestConcurrentResolutionMatchesSequentialOracle(t *testing.T) {
	type answer struct {
		q     geom.Point
		k     int
		src   core.Source
		ids   []int64
		dists []float64
	}
	capture := func(qworkers int) ([]answer, []core.POI) {
		cfg := smallConfig()
		cfg.Duration = 300
		cfg.QueryWorkers = qworkers
		w, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var out []answer
		w.SetAudit(func(q geom.Point, k int, ans []core.Candidate, src core.Source) {
			a := answer{q: q, k: k, src: src}
			for _, c := range ans {
				a.ids = append(a.ids, c.ID)
				a.dists = append(a.dists, c.Dist)
			}
			out = append(out, a)
		})
		w.Run()
		return out, w.Server().POIs()
	}
	seq, pois := capture(1)
	if len(seq) == 0 {
		t.Fatal("sequential run audited no queries")
	}
	conc, _ := capture(8)
	if !reflect.DeepEqual(seq, conc) {
		t.Fatalf("concurrent resolution diverged from sequential:\nseq:  %d answers\nconc: %d answers",
			len(seq), len(conc))
	}
	for _, a := range seq {
		dists := make([]float64, len(pois))
		for i, p := range pois {
			dists[i] = a.q.Dist(p.Loc)
		}
		sort.Float64s(dists)
		for i, d := range a.dists {
			if math.Abs(d-dists[i]) > 1e-9 {
				t.Fatalf("query at %v k=%d rank %d: answer dist %v, oracle %v (src %v)",
					a.q, a.k, i+1, d, dists[i], a.src)
			}
		}
	}
}

// Cache policy 1 with the "all certified" reading must keep caches healthy:
// after a steady-state run at k=1 the average cache size stays well above 1.
func TestCachesDoNotCollapseAtLowK(t *testing.T) {
	cfg := smallConfig()
	cfg.KMin, cfg.KMax = 1, 1
	cfg.Duration = 600
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_ = w.Run()
	withCache, total := w.caches.Held()
	if withCache == 0 {
		t.Fatal("no host holds a cache after the run")
	}
	avg := float64(total) / float64(withCache)
	if avg < 2 {
		t.Errorf("average cache size %.2f at k=1: caches collapsed", avg)
	}
}

// Policy 1 read all the way: a peer-solved query stores every neighbor the
// exchange certified, not what the first sufficient peer certified. Against
// the same world resolved with the early exit (refWorld + earlyExitPeers: the
// same RNG draws, the same movement, the same plans), entries must hold
// strictly more neighbors on average and the server share must not rise — at
// k = 1, where one certificate used to end the loop, and at the k 3–7 the
// benchmark runs.
func TestCertifiedSharesKeepCachesDeep(t *testing.T) {
	for _, k := range [][2]int{{1, 1}, {3, 7}} {
		cfg := smallConfig()
		cfg.KMin, cfg.KMax = k[0], k[1]
		cfg.Duration = 600
		w, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		early := newRefWorld(w.Config(), w.Roads())
		early.earlyExit = true
		want := early.run()
		wantEntries, wantNeighbors := 0, 0
		for _, c := range early.caches {
			if ent, ok := c.Entry(); ok {
				wantEntries++
				wantNeighbors += len(ent.Neighbors)
			}
		}

		got := w.Run()
		entries, neighbors := w.caches.Held()
		if got.TotalQueries != want.TotalQueries || entries != wantEntries || entries == 0 {
			t.Fatalf("k %v: %d queries / %d entries, early-exit world %d / %d: the two runs are not the same plan",
				k, got.TotalQueries, entries, want.TotalQueries, wantEntries)
		}
		mean, wantMean := float64(neighbors)/float64(entries), float64(wantNeighbors)/float64(wantEntries)
		t.Logf("k %v: %.2f neighbors per held entry (early exit %.2f), SQRR %.2f %% (early exit %.2f %%)",
			k, mean, wantMean, got.SQRR(), want.SQRR())
		if mean <= wantMean {
			t.Errorf("k %v: %.2f neighbors per held entry, no deeper than the early exit's %.2f", k, mean, wantMean)
		}
		if got.SQRR() > want.SQRR() {
			t.Errorf("k %v: SQRR %.2f %%, above the early exit's %.2f %%", k, got.SQRR(), want.SQRR())
		}
	}
}

// The §3.3 bounds forwarded to the server must never exclude a true result:
// implied by TestEveryQueryAnswerIsExact, but this checks the accounting
// side — server-solved queries must actually consume bounds when peers
// supplied data.
func TestServerQueriesCarryBounds(t *testing.T) {
	cfg := smallConfig()
	cfg.Duration = 300
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	serverQueries := 0
	w.SetAudit(func(q geom.Point, k int, answer []core.Candidate, src core.Source) {
		if src == core.SolvedByServer {
			serverQueries++
		}
	})
	m := w.Run()
	if serverQueries == 0 || m.SolvedByServer == 0 {
		t.Skip("no server queries in this configuration")
	}
	if m.ServerPageAccesses <= 0 {
		t.Error("server queries recorded without page accesses")
	}
}
