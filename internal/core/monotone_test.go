package core

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/geom/geomtest"
)

// verifyMultiPeerReference is the pre-monotone kNN_multiple loop: one exact
// arc-arrangement CoversCircle test per candidate, with the same total-order
// candidate sort the production path uses. It is the oracle the monotone
// threshold path must match verdict-for-verdict.
func verifyMultiPeerReference(q geom.Point, peers []PeerCache, h *ResultHeap) {
	region := CertainRegion(peers)
	if region.IsEmpty() {
		return
	}
	seen := make(map[int64]bool)
	var cands []Candidate
	for _, p := range peers {
		for _, n := range p.Neighbors {
			if seen[n.ID] {
				continue
			}
			seen[n.ID] = true
			cands = append(cands, Candidate{POI: n, Dist: q.Dist(n.Loc)})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Dist != cands[j].Dist {
			return cands[i].Dist < cands[j].Dist
		}
		return cands[i].ID < cands[j].ID
	})
	for _, c := range cands {
		if h.Complete() {
			return
		}
		c.Certain = geomtest.CoversCircle(region, geom.NewCircle(q, c.Dist))
		h.Add(c)
	}
}

// TestMonotoneVerificationMatchesCoversCircle pins the tentpole equivalence:
// replacing the per-candidate CoversCircle tests with one MaxCoveredRadius
// threshold must leave every certain/uncertain verdict — and therefore the
// entire heap content — unchanged over randomized honest peer sets.
func TestMonotoneVerificationMatchesCoversCircle(t *testing.T) {
	rng := rand.New(rand.NewSource(5150))
	var scratch VerifierScratch
	for trial := 0; trial < 500; trial++ {
		span := 1000.0
		nPOI := 5 + rng.Intn(100)
		pois := make([]POI, nPOI)
		for i := range pois {
			pois[i] = POI{ID: int64(i), Loc: geom.Pt(rng.Float64()*span, rng.Float64()*span)}
		}
		q := geom.Pt(rng.Float64()*span, rng.Float64()*span)
		k := 1 + rng.Intn(8)

		nPeers := 1 + rng.Intn(5)
		peers := make([]PeerCache, nPeers)
		for i := range peers {
			loc := geom.Pt(q.X+rng.NormFloat64()*100, q.Y+rng.NormFloat64()*100)
			peers[i] = honestCache(loc, pois, 1+rng.Intn(10))
		}

		// Half the trials pre-run the single-peer phase the way the resolver
		// does, so the early-exit interaction is covered too.
		hRef := NewResultHeap(k)
		hMono := NewResultHeap(k)
		if trial%2 == 0 {
			for _, p := range peers {
				VerifySinglePeer(q, p, hRef)
				VerifySinglePeer(q, p, hMono)
			}
		}
		verifyMultiPeerReference(q, peers, hRef)
		scratch.VerifyMultiPeer(q, peers, hMono)

		ref, mono := hRef.Entries(), hMono.Entries()
		if len(ref) != len(mono) {
			t.Fatalf("trial %d: heap sizes differ: ref %d vs monotone %d",
				trial, len(ref), len(mono))
		}
		for i := range ref {
			if ref[i].ID != mono[i].ID || ref[i].Certain != mono[i].Certain ||
				ref[i].Dist != mono[i].Dist {
				t.Fatalf("trial %d entry %d: ref %+v vs monotone %+v",
					trial, i, ref[i], mono[i])
			}
		}
	}
}

// The degenerate shapes the randomized trial rarely produces: duplicate
// peers (identical certain circles), a candidate exactly at Q, and an
// uncovered query point.
func TestMonotoneVerificationDegenerate(t *testing.T) {
	q := geom.Pt(0, 0)
	atQ := POI{ID: 1, Loc: geom.Pt(0, 0)}
	far := POI{ID: 2, Loc: geom.Pt(6, 0)}
	peer := NewPeerCache(geom.Pt(1, 0), []POI{atQ, far})
	dup := NewPeerCache(geom.Pt(1, 0), []POI{atQ, far})

	for name, peers := range map[string][]PeerCache{
		"duplicate-peers": {peer, dup},
		"single":          {peer},
		"with-empty":      {peer, {QueryLoc: geom.Pt(2, 2)}},
	} {
		hRef := NewResultHeap(2)
		verifyMultiPeerReference(q, peers, hRef)
		hMono := NewResultHeap(2)
		var s VerifierScratch
		s.VerifyMultiPeer(q, peers, hMono)
		ref, mono := hRef.Entries(), hMono.Entries()
		if len(ref) != len(mono) {
			t.Fatalf("%s: heap sizes differ: %d vs %d", name, len(ref), len(mono))
		}
		for i := range ref {
			if ref[i] != mono[i] {
				t.Fatalf("%s entry %d: ref %+v vs monotone %+v", name, i, ref[i], mono[i])
			}
		}
	}

	// Query point outside every certain circle: nothing can certify.
	farQ := geom.Pt(100, 100)
	hMono := NewResultHeap(2)
	var s VerifierScratch
	s.VerifyMultiPeer(farQ, []PeerCache{peer}, hMono)
	if hMono.NumCertain() != 0 {
		t.Errorf("uncovered query certified %d entries", hMono.NumCertain())
	}
}
