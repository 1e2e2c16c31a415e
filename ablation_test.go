package senn

// ablation_test.go quantifies the individual design choices of the system,
// as promised in DESIGN.md. Each ablation switches one mechanism off (or
// swaps an implementation) and reports the effect:
//
//   - Heuristic 3.3 peer ordering vs arbitrary order vs largest Reach first;
//   - the kNN_multiple stage vs single-peer verification only;
//   - the exact arc-coverage region test vs the paper's polygonization
//     (BenchmarkAblationRegion* in internal/geom, both test-only now that
//     production decides Lemma 3.8 by Region.MaxCoveredRadius);
//   - EINN pruning bounds vs plain INN at the server.
//
// Run with: go test -bench Ablation -benchmem . ./internal/geom

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/nn"
	"repro/internal/sim"
)

// ablationScene builds a reproducible peer population over clustered POIs.
func ablationScene(seed int64) (pois []core.POI, caches []core.PeerCache, srv *sim.ServerModule, rng *rand.Rand) {
	rng = rand.New(rand.NewSource(seed))
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(20000, 20000))
	pois = sim.ClusteredPOIs(3000, bounds, 120, 90, rng)
	srv = sim.NewServerModule(pois, 30)
	caches = make([]core.PeerCache, 1200)
	for i := range caches {
		loc := geom.Pt(rng.Float64()*20000, rng.Float64()*20000)
		res, _ := nn.BestFirst(srv.Tree(), loc, 15)
		ns := make([]core.POI, len(res))
		for j, r := range res {
			ns[j] = pois[r.Ref]
		}
		caches[i] = core.NewPeerCache(loc, ns)
	}
	srv.ResetStats()
	return pois, caches, srv, rng
}

// gatherPeers returns the caches within radius of q.
func gatherPeers(q geom.Point, caches []core.PeerCache, radius float64) []core.PeerCache {
	var out []core.PeerCache
	for _, c := range caches {
		if q.Dist(c.QueryLoc) <= radius {
			out = append(out, c)
		}
	}
	return out
}

// BenchmarkAblationPeerOrdering is the evidence for running kNN_single once:
// it counts the kNN_single runs a query needs before its k-th certificate —
// and the neighbors certified by then, on a heap sized at the cache capacity —
// under three visiting orders: arbitrary (generation order), Heuristic 3.3
// (nearest cached query location first) and largest Reach first. A peer
// certifies what lies within its Reach of Q and those discs are nested, so the
// share with the largest Reach certifies everything any order does: whenever
// single peers can answer at all it answers alone — exactly 1.00 runs — and
// certifies the most, which is why production visits no other
// (core.VerifierScratch.VerifyPeers, DESIGN §4 D9).
func BenchmarkAblationPeerOrdering(b *testing.B) {
	_, caches, _, rng := ablationScene(1)
	const k, capacity = 5, 15
	orders := []struct {
		name string
		less func(q geom.Point, a, b core.PeerCache) bool
	}{
		{"arbitrary", nil},
		{"heuristic3.3", func(q geom.Point, a, b core.PeerCache) bool { return q.Dist2(a.QueryLoc) < q.Dist2(b.QueryLoc) }},
		{"largestReach", func(q geom.Point, a, b core.PeerCache) bool { return a.Reach(q) > b.Reach(q) }},
	}
	var runs, certain [3]int
	solved := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		home := caches[rng.Intn(len(caches))]
		q := home.QueryLoc.Add(geom.Pt(rng.NormFloat64()*120, rng.NormFloat64()*120))
		peers := gatherPeers(q, caches, 600)
		if _, single := new(core.VerifierScratch).VerifySinglePeers(q, k, peers, core.NewResultHeap(k)); !single {
			continue // no order answers this one from single peers
		}
		solved++
		for o, order := range orders {
			ps := append([]core.PeerCache(nil), peers...)
			if order.less != nil {
				sort.SliceStable(ps, func(i, j int) bool { return order.less(q, ps[i], ps[j]) })
			}
			h := core.NewResultHeap(capacity)
			for _, p := range ps {
				runs[o]++
				core.VerifySinglePeer(q, p, h)
				if h.NumCertain() >= k {
					break
				}
			}
			certain[o] += h.NumCertain()
		}
	}
	for o, order := range orders {
		if solved > 0 {
			b.ReportMetric(float64(runs[o])/float64(solved), "runs/"+order.name)
			b.ReportMetric(float64(certain[o])/float64(solved), "certain/"+order.name)
		}
	}
}

// BenchmarkAblationMultiPeerStage measures how many queries only the merged
// region of kNN_multiple can resolve — the stage's whole contribution.
func BenchmarkAblationMultiPeerStage(b *testing.B) {
	_, caches, _, rng := ablationScene(2)
	const k = 6
	var singleOnly, multiRescued, unresolved int
	var verify core.VerifierScratch
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		home := caches[rng.Intn(len(caches))]
		q := home.QueryLoc.Add(geom.Pt(rng.NormFloat64()*150, rng.NormFloat64()*150))
		peers := gatherPeers(q, caches, 400)
		h := core.NewResultHeap(k)
		verify.VerifySinglePeers(q, k, peers, h)
		switch {
		case h.Complete():
			singleOnly++
		default:
			verify.VerifyMultiPeer(q, peers, h)
			if h.Complete() {
				multiRescued++
			} else {
				unresolved++
			}
		}
	}
	total := float64(singleOnly + multiRescued + unresolved)
	if total > 0 {
		b.ReportMetric(100*float64(singleOnly)/total, "single%")
		b.ReportMetric(100*float64(multiRescued)/total, "multiRescued%")
		b.ReportMetric(100*float64(unresolved)/total, "server%")
	}
}

// BenchmarkAblationServerBoundsOff reruns the Figure 17 situation with the
// bounds discarded, isolating their PAR contribution.
func BenchmarkAblationServerBoundsOff(b *testing.B) {
	benchServerBounds(b, false)
}

// BenchmarkAblationServerBoundsOn is the bounded counterpart.
func BenchmarkAblationServerBoundsOn(b *testing.B) {
	benchServerBounds(b, true)
}

func benchServerBounds(b *testing.B, useBounds bool) {
	_, caches, srv, rng := ablationScene(4)
	const k, capacity = 5, 15
	tree := srv.Tree()
	var pages int64
	var verify core.VerifierScratch
	queries := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		home := caches[rng.Intn(len(caches))]
		q := home.QueryLoc.Add(geom.Pt(rng.NormFloat64()*100, rng.NormFloat64()*100))
		h := core.NewResultHeap(capacity)
		verify.VerifySinglePeers(q, k, gatherPeers(q, caches, 200), h)
		if h.NumCertain() >= k {
			continue // peer-resolved
		}
		bounds := nn.NoBounds
		fetch := capacity
		if useBounds {
			bounds = h.Bounds()
			bounds.HasUpper = false
			if ub, ok := h.UpperBoundFor(k); ok {
				bounds.Upper, bounds.HasUpper = ub, true
			}
			fetch = capacity - h.NumCertain()
		}
		_, p := nn.EINN(tree, q, fetch, bounds)
		pages += p
		queries++
	}
	if queries > 0 {
		b.ReportMetric(float64(pages)/float64(queries), "pages/serverquery")
	}
}
