package core

// lemma_test.go checks the paper's lemmas one by one on constructed
// geometric scenarios, complementing the randomized oracles in
// verify_test.go.

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// Lemma 3.1: if Dist(Q,n_i) + δ > Dist(P,n_k), n_i cannot be verified — an
// unknown POI may hide in the uncovered part of the disc. Construct exactly
// such a hidden POI and confirm the uncertain classification is necessary.
func TestLemma31UncertainIsNecessary(t *testing.T) {
	q := geom.Pt(0, 0)
	// Peer P at (3,0) with certain radius 4: knows everything within 4 of P.
	// Its cached NNs: n1 at (2,0) (dist to Q: 2), n2 at (7,0) (farthest).
	n1 := POI{ID: 1, Loc: geom.Pt(2, 0)}
	n2 := POI{ID: 2, Loc: geom.Pt(7, 0)}
	// The hidden POI: outside P's certain circle but closer to Q than n1.
	hidden := POI{ID: 3, Loc: geom.Pt(-1.5, 0)} // dist to P = 4.5 > 4
	peer := NewPeerCache(geom.Pt(3, 0), []POI{n1, n2})

	h := NewResultHeap(1)
	VerifySinglePeer(q, peer, h)
	entries := h.Entries()
	if len(entries) == 0 {
		t.Fatal("no candidates")
	}
	// n1: Dist(Q,n1)+δ = 2+3 = 5 > 4 = Dist(P,n2): must be uncertain.
	if entries[0].Certain {
		t.Fatal("Lemma 3.1 violated: n1 certified despite uncovered area")
	}
	// And rightly so: the hidden POI is the true 1NN of Q.
	if q.Dist(hidden.Loc) >= q.Dist(n1.Loc) {
		t.Fatal("test construction broken")
	}
}

// Lemma 3.2 certifies through strict inequality and equality alike; just
// beyond equality it must not certify.
func TestLemma32Threshold(t *testing.T) {
	q := geom.Pt(0, 0)
	peerLoc := geom.Pt(1, 0)
	farthest := POI{ID: 9, Loc: geom.Pt(4, 0)} // Dist(P, n_k) = 3
	// Candidates sit off the P-Q axis so that they stay strictly inside the
	// peer's certain circle (never becoming its farthest neighbor) while
	// their distance to Q crosses the Lemma 3.2 threshold.
	for _, tc := range []struct {
		name    string
		loc     geom.Point
		certain bool
	}{
		{"well inside", geom.Pt(0, 1), true},      // 1 + 1 = 2 <= 3
		{"exactly at bound", geom.Pt(0, 2), true}, // 2 + 1 = 3 <= 3
		{"just beyond", geom.Pt(0, 2.01), false},  // 3.01 > 3
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := POI{ID: 1, Loc: tc.loc}
			peer := NewPeerCache(peerLoc, []POI{n, farthest})
			h := NewResultHeap(2)
			VerifySinglePeer(q, peer, h)
			for _, e := range h.Entries() {
				if e.ID == 1 && e.Certain != tc.certain {
					t.Errorf("certainty = %v, want %v", e.Certain, tc.certain)
				}
			}
		})
	}
}

// Lemma 3.6/3.7: certified objects carry exact ranks — build a line of POIs
// where the peer certifies a strict prefix and check each rank.
func TestLemma37ExactRanks(t *testing.T) {
	q := geom.Pt(0, 0)
	// POIs on the x axis at 1, 2, 3, ..., 8.
	var pois []POI
	for i := 1; i <= 8; i++ {
		pois = append(pois, POI{ID: int64(i), Loc: geom.Pt(float64(i), 0)})
	}
	// Peer at (1,0) caching its 6 nearest: POIs 1..6 (dist to P: 0..5);
	// certain radius = 5. Certified for Q: dist + 1 <= 5 → dist <= 4 →
	// POIs 1..4 with ranks 1..4.
	peer := honestCache(geom.Pt(1, 0), pois, 6)
	h := NewResultHeap(8)
	VerifySinglePeer(q, peer, h)
	cs := h.CertainEntries()
	if len(cs) != 4 {
		t.Fatalf("certified %d, want 4", len(cs))
	}
	for i, c := range cs {
		if c.ID != int64(i+1) {
			t.Errorf("rank %d holds POI %d, want %d", i+1, c.ID, i+1)
		}
		if math.Abs(c.Dist-float64(i+1)) > 1e-12 {
			t.Errorf("rank %d dist %v", i+1, c.Dist)
		}
	}
}

// Heuristic 3.3 is a heuristic, not a correctness requirement: shuffling
// peer order must never change WHICH objects end up certified by the full
// verification (single pass over all peers + multi-peer), only how soon.
func TestPeerOrderDoesNotChangeCertifiedSet(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	for trial := 0; trial < 60; trial++ {
		pois := make([]POI, 40)
		for i := range pois {
			pois[i] = POI{ID: int64(i), Loc: geom.Pt(rng.Float64()*300, rng.Float64()*300)}
		}
		q := geom.Pt(rng.Float64()*300, rng.Float64()*300)
		var peers []PeerCache
		for i := 0; i < 4; i++ {
			loc := geom.Pt(q.X+rng.NormFloat64()*50, q.Y+rng.NormFloat64()*50)
			peers = append(peers, honestCache(loc, pois, 6))
		}
		certified := func(ps []PeerCache) map[int64]bool {
			h := NewResultHeap(40) // no truncation: observe the full set
			for _, p := range ps {
				VerifySinglePeer(q, p, h)
			}
			out := map[int64]bool{}
			for _, c := range h.CertainEntries() {
				out[c.ID] = true
			}
			return out
		}
		a := certified(peers)
		shuffled := append([]PeerCache(nil), peers...)
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		b := certified(shuffled)
		if len(a) != len(b) {
			t.Fatalf("trial %d: certified set size depends on order: %d vs %d", trial, len(a), len(b))
		}
		for id := range a {
			if !b[id] {
				t.Fatalf("trial %d: POI %d certified only in one order", trial, id)
			}
		}
	}
}

// The certified set from any honest peer population is prefix-closed by
// rank: if rank r is certified, so is every rank below it. This is the
// property that makes the heap's lower bound (and the cache policy) sound.
func TestCertifiedSetIsPrefixClosed(t *testing.T) {
	rng := rand.New(rand.NewSource(707))
	for trial := 0; trial < 100; trial++ {
		pois := make([]POI, 25+rng.Intn(50))
		for i := range pois {
			pois[i] = POI{ID: int64(i), Loc: geom.Pt(rng.Float64()*400, rng.Float64()*400)}
		}
		q := geom.Pt(rng.Float64()*400, rng.Float64()*400)
		var peers []PeerCache
		for i := 0; i < 1+rng.Intn(5); i++ {
			loc := geom.Pt(q.X+rng.NormFloat64()*70, q.Y+rng.NormFloat64()*70)
			peers = append(peers, honestCache(loc, pois, 2+rng.Intn(10)))
		}
		h := NewResultHeap(len(pois))
		for _, p := range peers {
			VerifySinglePeer(q, p, h)
		}
		VerifyMultiPeer(q, peers, h)
		certified := map[int64]bool{}
		for _, c := range h.CertainEntries() {
			certified[c.ID] = true
		}
		truth := trueKNN(q, pois, len(pois))
		seenUncertified := false
		for _, r := range truth {
			if certified[r.ID] {
				if seenUncertified {
					t.Fatalf("trial %d: certified set has a rank gap", trial)
				}
			} else {
				seenUncertified = true
			}
		}
	}
}

// Reach is Lemma 3.2 as one number, and it is what lets a resolver ask what a
// share could certify before looking inside it: an honest peer certifies
// exactly the POIs of the world within Reach(q) of q — none missing, none
// beyond — so of two peers the one with the larger reach certifies everything
// the other does, and a peer whose reach is negative certifies nothing.
func TestReachBoundsWhatAPeerCertifies(t *testing.T) {
	rng := rand.New(rand.NewSource(2202))
	positive := 0
	for trial := 0; trial < 400; trial++ {
		pois := make([]POI, 25+rng.Intn(50))
		for i := range pois {
			pois[i] = POI{ID: int64(i), Loc: geom.Pt(rng.Float64()*400, rng.Float64()*400)}
		}
		q := geom.Pt(rng.Float64()*400, rng.Float64()*400)
		certifiedBy := func(p PeerCache) map[int64]bool {
			h := NewResultHeap(len(pois))
			VerifySinglePeer(q, p, h)
			out := map[int64]bool{}
			for _, c := range h.CertainEntries() {
				out[c.ID] = true
			}
			return out
		}
		var peers [2]PeerCache
		var sets [2]map[int64]bool
		for i := range peers {
			loc := geom.Pt(q.X+rng.NormFloat64()*60, q.Y+rng.NormFloat64()*60)
			peers[i] = honestCache(loc, pois, 1+rng.Intn(15))
			sets[i] = certifiedBy(peers[i])
			reach := peers[i].Reach(q)
			if reach > 0 {
				positive++
			}
			for _, p := range pois {
				if want := q.Dist(p.Loc) <= reach+geom.Eps; sets[i][p.ID] != want {
					t.Fatalf("trial %d: POI %d at %.6f from Q, reach %.6f: certified %v",
						trial, p.ID, q.Dist(p.Loc), reach, sets[i][p.ID])
				}
			}
		}
		small, large := 0, 1
		if peers[0].Reach(q) > peers[1].Reach(q) {
			small, large = 1, 0
		}
		for id := range sets[small] {
			if !sets[large][id] {
				t.Fatalf("trial %d: POI %d certified at reach %.6f but not at the larger reach %.6f",
					trial, id, peers[small].Reach(q), peers[large].Reach(q))
			}
		}
	}
	if positive < 100 {
		t.Fatalf("only %d of 800 peers could certify anything; fixture too weak", positive)
	}
}
