package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
)

// trueKNN computes the exact k nearest POIs of q by exhaustive scan.
func trueKNN(q geom.Point, pois []POI, k int) []RankedPOI {
	out := make([]RankedPOI, 0, len(pois))
	for _, p := range pois {
		out = append(out, RankedPOI{POI: p, Dist: q.Dist(p.Loc)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Dist < out[j].Dist })
	if len(out) > k {
		out = out[:k]
	}
	for i := range out {
		out[i].Rank = i + 1
	}
	return out
}

// honestCache builds the peer cache a mobile host would really hold after
// querying at loc: the exact top-k NNs of loc.
func honestCache(loc geom.Point, pois []POI, k int) PeerCache {
	nn := trueKNN(loc, pois, k)
	ns := make([]POI, len(nn))
	for i, r := range nn {
		ns[i] = r.POI
	}
	return NewPeerCache(loc, ns)
}

func TestPeerCacheBasics(t *testing.T) {
	pois := []POI{
		{ID: 1, Loc: geom.Pt(3, 0)},
		{ID: 2, Loc: geom.Pt(1, 0)},
		{ID: 3, Loc: geom.Pt(2, 0)},
	}
	pc := NewPeerCache(geom.Pt(0, 0), pois)
	if pc.Neighbors[0].ID != 2 || pc.Neighbors[1].ID != 3 || pc.Neighbors[2].ID != 1 {
		t.Errorf("neighbors not sorted by distance: %v", pc.Neighbors)
	}
	if pc.Radius() != 3 {
		t.Errorf("Radius = %v, want 3", pc.Radius())
	}
	cc := pc.CertainCircle()
	if !cc.Center.Eq(geom.Pt(0, 0)) || cc.Radius != 3 {
		t.Errorf("CertainCircle = %v", cc)
	}
	empty := NewPeerCache(geom.Pt(5, 5), nil)
	if !empty.IsEmpty() || empty.Radius() != 0 {
		t.Error("empty cache should have zero radius")
	}
}

func TestSortPeersByProximity(t *testing.T) {
	q := geom.Pt(0, 0)
	peers := []PeerCache{
		{QueryLoc: geom.Pt(10, 0)},
		{QueryLoc: geom.Pt(1, 0)},
		{QueryLoc: geom.Pt(5, 0)},
	}
	sorted := SortPeersByProximity(q, peers)
	if sorted[0].QueryLoc.X != 1 || sorted[1].QueryLoc.X != 5 || sorted[2].QueryLoc.X != 10 {
		t.Errorf("order wrong: %v", sorted)
	}
	// Original slice untouched.
	if peers[0].QueryLoc.X != 10 {
		t.Error("input slice mutated")
	}
}

// Single-peer verification on a constructed scene: Q at the origin, peer P1
// one unit away with certain radius 3, peer P2 whose certain area is too
// small to certify anything. This mirrors the Figure 6 walk-through: two
// certain NNs from P1, only uncertain ones from P2.
func TestVerifySinglePeerFig6Scenario(t *testing.T) {
	q := geom.Pt(0, 0)
	// P1 at (1,0): neighbors a, b certifiable; c (its farthest) not.
	a := POI{ID: 1, Loc: geom.Pt(0, 1)}    // Dist(Q,a)=1;   1+1 <= 3  certain
	b := POI{ID: 2, Loc: geom.Pt(0, -1.5)} // Dist(Q,b)=1.5; 1.5+1 <= 3 certain
	c := POI{ID: 3, Loc: geom.Pt(4, 0)}    // Dist(Q,c)=4;   4+1 > 3   uncertain
	p1 := NewPeerCache(geom.Pt(1, 0), []POI{a, b, c})
	if math.Abs(p1.Radius()-3) > 1e-12 {
		t.Fatalf("P1 radius = %v, want 3", p1.Radius())
	}
	// P2 at (0,2) with a tight certain circle: everything uncertain.
	d := POI{ID: 4, Loc: geom.Pt(0, 3.4)} // Dist(Q,d)=3.4
	e := POI{ID: 5, Loc: geom.Pt(2, 2)}   // Dist(Q,e)=2.828
	p2 := NewPeerCache(geom.Pt(0, 2), []POI{d, e})

	h := NewResultHeap(4)
	VerifySinglePeer(q, p1, h)
	if h.NumCertain() != 2 {
		t.Fatalf("P1 should certify 2, got %d", h.NumCertain())
	}
	VerifySinglePeer(q, p2, h)
	if h.NumCertain() != 2 {
		t.Fatalf("P2 should certify nothing, total certain %d", h.NumCertain())
	}
	entries := h.Entries()
	if len(entries) != 4 {
		t.Fatalf("heap size %d, want 4", len(entries))
	}
	// Layout: certain a (1), certain b (1.5), uncertain e (2.828),
	// uncertain d (3.4) — the Table 1 shape.
	wantIDs := []int64{1, 2, 5, 4}
	for i, e := range entries {
		if e.ID != wantIDs[i] {
			t.Errorf("entry %d id = %d, want %d", i, e.ID, wantIDs[i])
		}
	}
	if h.State() != StateFullMixed {
		t.Errorf("state = %v", h.State())
	}
}

// Lemma 3.2 boundary: equality certifies.
func TestVerifySinglePeerBoundaryEquality(t *testing.T) {
	q := geom.Pt(0, 0)
	// delta = 1, radius = 3, neighbor at distance exactly 2 from Q.
	n1 := POI{ID: 1, Loc: geom.Pt(-2, 0)} // Dist(Q)=2, 2+1 == 3
	n2 := POI{ID: 2, Loc: geom.Pt(4, 0)}  // farthest: Dist(P1)=3
	p1 := NewPeerCache(geom.Pt(1, 0), []POI{n1, n2})
	h := NewResultHeap(2)
	VerifySinglePeer(q, p1, h)
	entries := h.Entries()
	if !entries[0].Certain {
		t.Error("boundary case Dist(Q,n)+delta == Dist(P,n_k) must certify")
	}
	if entries[1].Certain {
		t.Error("the peer's farthest neighbor must stay uncertain (4+1 > 3)")
	}
}

func TestVerifySinglePeerEmptyCache(t *testing.T) {
	h := NewResultHeap(2)
	VerifySinglePeer(geom.Pt(0, 0), PeerCache{QueryLoc: geom.Pt(1, 1)}, h)
	if h.Len() != 0 {
		t.Error("empty peer cache should contribute nothing")
	}
}

// Figure 7 end-to-end: a POI that neither peer certifies alone becomes
// certain once the two certain circles merge into R_c.
func TestVerifyMultiPeerFig7(t *testing.T) {
	q := geom.Pt(0, 0)
	// Two peers flanking Q with overlapping certain circles.
	// P3 at (-2, 0), farthest neighbor at distance 5 -> circle covers
	// [-7, 3] on the x axis. P4 at (2, 0) symmetric.
	target := POI{ID: 10, Loc: geom.Pt(0, 2.5)} // Dist(Q) = 2.5
	f3 := POI{ID: 11, Loc: geom.Pt(-7, 0)}      // P3 farthest, radius 5
	f4 := POI{ID: 12, Loc: geom.Pt(7, 0)}       // P4 farthest, radius 5
	p3 := NewPeerCache(geom.Pt(-2, 0), []POI{target, f3})
	p4 := NewPeerCache(geom.Pt(2, 0), []POI{target, f4})

	// Single-peer verification fails for the target with both peers:
	// Dist(Q,target)+delta = 2.5+2 = 4.5 <= 5 ... that would certify, so
	// spread the peers farther: delta = 3.
	p3 = NewPeerCache(geom.Pt(-3, 0), []POI{target, f3})
	p4 = NewPeerCache(geom.Pt(3, 0), []POI{target, f4})
	// Now radius(P3) = Dist((-3,0), (-7,0)) = 4; 2.5+3 = 5.5 > 4: uncertain.

	h := NewResultHeap(1)
	VerifySinglePeer(q, p3, h)
	VerifySinglePeer(q, p4, h)
	if h.NumCertain() != 0 {
		t.Fatalf("no single peer should certify the target, got %d certain", h.NumCertain())
	}
	// The union of circles centered (-3,0) r=4 and (3,0) r=4 covers the
	// disc around Q with radius 2.5? Point (0, 2.5): dist to (-3,0) is
	// sqrt(9+6.25)=3.9 < 4. Extreme point (0, 2.5) of the query circle is
	// inside both; side points (±2.5, 0) are inside; top of circle (0,2.5)
	// ok. Multi-peer verification must certify it.
	VerifyMultiPeer(q, []PeerCache{p3, p4}, h)
	if h.NumCertain() != 1 {
		t.Fatalf("multi-peer should certify the target, got %d certain", h.NumCertain())
	}
	if h.Entries()[0].ID != 10 {
		t.Errorf("certified wrong POI: %+v", h.Entries()[0])
	}
}

func TestCertainRegionSkipsEmptyPeers(t *testing.T) {
	r := CertainRegion([]PeerCache{
		{QueryLoc: geom.Pt(0, 0)}, // empty
		NewPeerCache(geom.Pt(1, 1), []POI{{ID: 1, Loc: geom.Pt(2, 2)}}),
	})
	if len(r.Circles()) != 1 {
		t.Errorf("region has %d circles, want 1", len(r.Circles()))
	}
}

// Soundness property: with honestly-built caches (true kNN of each peer's
// location), every object the verifier certifies — by either method — is a
// true nearest neighbor of Q with exactly the claimed rank (Lemmas 3.2, 3.7
// and 3.8).
func TestVerificationSoundnessRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 200; trial++ {
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

		truth := trueKNN(q, pois, nPOI) // full ranking
		rankOf := make(map[int64]int, nPOI)
		for _, r := range truth {
			rankOf[r.ID] = r.Rank
		}

		h := NewResultHeap(k)
		for _, p := range peers {
			VerifySinglePeer(q, p, h)
		}
		checkCertified := func(stage string) {
			t.Helper()
			for i, c := range h.CertainEntries() {
				wantRank := i + 1
				if rankOf[c.ID] != wantRank {
					t.Fatalf("trial %d %s: certified POI %d as rank %d, true rank %d",
						trial, stage, c.ID, wantRank, rankOf[c.ID])
				}
			}
		}
		checkCertified("single")
		VerifyMultiPeer(q, peers, h)
		checkCertified("multi")

		// Bounds validity: lower <= true d_j for the certified prefix and
		// upper >= true d_k when the heap is full.
		b := h.Bounds()
		if b.HasLower {
			j := h.NumCertain()
			if j > 0 && b.Lower > truth[j-1].Dist+1e-9 {
				t.Fatalf("trial %d: lower bound %v exceeds true d_%d %v",
					trial, b.Lower, j, truth[j-1].Dist)
			}
		}
		if b.HasUpper && k <= len(truth) {
			if b.Upper < truth[k-1].Dist-1e-9 {
				t.Fatalf("trial %d: upper bound %v below true d_k %v",
					trial, b.Upper, truth[k-1].Dist)
			}
		}
	}
}

// Multi-peer verification must strictly dominate single-peer verification:
// everything certifiable alone stays certifiable with the merged region.
func TestMultiPeerDominatesSinglePeer(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 100; trial++ {
		pois := make([]POI, 40)
		for i := range pois {
			pois[i] = POI{ID: int64(i), Loc: geom.Pt(rng.Float64()*500, rng.Float64()*500)}
		}
		q := geom.Pt(rng.Float64()*500, rng.Float64()*500)
		var peers []PeerCache
		for i := 0; i < 3; i++ {
			loc := geom.Pt(q.X+rng.NormFloat64()*50, q.Y+rng.NormFloat64()*50)
			peers = append(peers, honestCache(loc, pois, 5))
		}
		k := 5
		hSingle := NewResultHeap(k)
		for _, p := range peers {
			VerifySinglePeer(q, p, hSingle)
		}
		hMulti := NewResultHeap(k)
		VerifyMultiPeer(q, peers, hMulti)
		if hMulti.NumCertain() < hSingle.NumCertain() {
			t.Fatalf("trial %d: multi certified %d < single %d",
				trial, hMulti.NumCertain(), hSingle.NumCertain())
		}
	}
}
