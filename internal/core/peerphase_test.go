package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/geom/geomtest"
)

// peerScene is one exchange as VerifyPeers sees it: a k-NN query at q, a heap
// sized heapK >= k, and the shares received — honest caches over one POI set,
// so they overlap and repeat each other's POIs, some of them empty.
type peerScene struct {
	q        geom.Point
	k, heapK int
	peers    []PeerCache
}

// drawPeerScene draws a scene with up to maxShares shares. Share counts lean
// small (the simulator's exchanges) with a tail to maxShares (the relay's 33);
// one scene in eight puts q outside every certain circle, one share in ten is
// empty, and half the scenes size the heap at a cache capacity above k.
func drawPeerScene(rng *rand.Rand, maxShares int) peerScene {
	const span = 1000.0
	pois := make([]POI, 20+rng.Intn(120))
	for i := range pois {
		pois[i] = POI{ID: int64(i), Loc: geom.Pt(rng.Float64()*span, rng.Float64()*span)}
	}
	sc := peerScene{q: geom.Pt(rng.Float64()*span, rng.Float64()*span), k: 1 + rng.Intn(20)}
	sc.heapK = sc.k
	if rng.Intn(2) == 0 {
		sc.heapK += rng.Intn(21)
	}
	n := 1 + rng.Intn(6)
	if rng.Intn(8) == 0 {
		n = 1 + rng.Intn(maxShares)
	}
	spread := 20 + rng.Float64()*130
	centre := sc.q
	if rng.Intn(8) == 0 {
		centre = geom.Pt(sc.q.X+span, sc.q.Y-span)
	}
	// honestCache's answer, without its reflective sort: the scenes are most
	// of what this test costs.
	honest := func(loc geom.Point) PeerCache {
		SortByDistance(loc, pois)
		return NewPeerCache(loc, pois[:min(len(pois), 1+rng.Intn(20))])
	}
	sc.peers = make([]PeerCache, n)
	for i := range sc.peers {
		loc := geom.Pt(centre.X+rng.NormFloat64()*spread, centre.Y+rng.NormFloat64()*spread)
		switch rng.Intn(10) {
		case 0:
			sc.peers[i] = PeerCache{QueryLoc: loc}
		case 1:
			// A share taken at q itself: its circle is centred on q.
			sc.peers[i] = honest(sc.q)
		default:
			sc.peers[i] = honest(loc)
		}
	}
	return sc
}

// checkPeerScene holds VerifyPeers to the printed sequence on one scene: the
// same share count, the same Source, the same certain entries; and, while the
// answer is not settled, the same uncertain entries and the same §3.3 bounds
// (once k are certain no bound is sent and VerifyPeers stops keeping
// uncertain candidates). It returns the Source both agree on. A scene whose
// certain sets part at a candidate on the edge of R_c is reported as errOnEdge:
// the two Lemma 3.8 predicates are not held to each other there.
func checkPeerScene(s *VerifierScratch, sc peerScene) (Source, error) {
	want, got := NewResultHeap(sc.heapK), NewResultHeap(sc.heapK)
	wantUsed, wantSingle := paperPeerPhase(sc.q, sc.k, sc.peers, want)
	gotUsed, gotSingle := s.VerifyPeers(sc.q, sc.k, sc.peers, got)
	if gotUsed != wantUsed || gotSingle != wantSingle {
		return 0, fmt.Errorf("used %d single %v, paper sequence %d %v", gotUsed, gotSingle, wantUsed, wantSingle)
	}
	src := SolvedByServer
	switch {
	case wantSingle:
		src = SolvedBySinglePeer
	case want.NumCertain() >= sc.k:
		src = SolvedByMultiPeer
	}
	wc, gc := want.CertainView(), got.CertainView()
	for i := 0; i < len(wc) || i < len(gc); i++ {
		if i < len(wc) && i < len(gc) && wc[i] == gc[i] {
			continue
		}
		odd := gc
		if i >= len(gc) || i < len(wc) && gc[i].after(wc[i]) {
			odd = wc
		}
		if onRegionEdge(CertainRegion(sc.peers), sc.q, odd[i].Dist) {
			return src, errOnEdge
		}
		return src, fmt.Errorf("certain sets part at entry %d, %+v: %d certain, paper sequence %d", i, odd[i], len(gc), len(wc))
	}
	if src != SolvedByServer {
		return src, nil
	}
	we, ge := want.Entries(), got.Entries()
	if len(we) != len(ge) {
		return src, fmt.Errorf("%d entries, paper sequence %d", len(ge), len(we))
	}
	for i := range we {
		if we[i] != ge[i] {
			return src, fmt.Errorf("entry %d = %+v, paper sequence %+v", i, ge[i], we[i])
		}
	}
	if want.Bounds() != got.Bounds() || want.State() != got.State() {
		return src, fmt.Errorf("bounds %+v state %v, paper sequence %+v %v", got.Bounds(), got.State(), want.Bounds(), want.State())
	}
	wu, wok := want.UpperBoundFor(sc.k)
	gu, gok := got.UpperBoundFor(sc.k)
	if wu != gu || wok != gok {
		return src, fmt.Errorf("UpperBoundFor(%d) = %v %v, paper sequence %v %v", sc.k, gu, gok, wu, wok)
	}
	return src, nil
}

var errOnEdge = errors.New("a candidate lies on the edge of the certain region")

// TestPeerPhaseMatchesPaperSequence is the oracle test of the one peer phase:
// one kNN_single on the share with the largest reach, one covered radius and
// one unordered pass must leave exactly what the proximity-ordered kNN_single
// loop and the per-candidate arc-arrangement kNN_multiple leave.
func TestPeerPhaseMatchesPaperSequence(t *testing.T) {
	scenes := 200000
	if testing.Short() {
		scenes = 20000
	}
	rng := rand.New(rand.NewSource(2401))
	var s VerifierScratch
	counts := map[Source]int{}
	onEdge := 0
	for i := 0; i < scenes; i++ {
		sc := drawPeerScene(rng, 33)
		src, err := checkPeerScene(&s, sc)
		if err == errOnEdge {
			onEdge++
			continue
		}
		if err != nil {
			t.Fatalf("scene %d (k %d, heap %d, %d shares at %v): %v", i, sc.k, sc.heapK, len(sc.peers), sc.q, err)
		}
		counts[src]++
	}
	t.Logf("%d scenes: %v, %d set aside on the region's edge", scenes, counts, onEdge)
	if onEdge > scenes/100 {
		t.Errorf("%d of %d scenes set aside on the region's edge; the oracle is deciding too little", onEdge, scenes)
	}
	for _, src := range []Source{SolvedBySinglePeer, SolvedByMultiPeer, SolvedByServer} {
		if counts[src] < scenes/50 {
			t.Errorf("only %d of %d scenes ended %v; fixture too weak", counts[src], scenes, src)
		}
	}
}

func FuzzPeerPhaseMatchesPaperSequence(f *testing.F) {
	for seed := int64(0); seed < 5; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		var s VerifierScratch
		sc := drawPeerScene(rand.New(rand.NewSource(seed)), 33)
		if _, err := checkPeerScene(&s, sc); err != nil && err != errOnEdge {
			t.Fatalf("k %d, heap %d, %d shares at %v: %v", sc.k, sc.heapK, len(sc.peers), sc.q, err)
		}
	})
}

// TestRangeThresholdMatchesCoversCircle pins the range query's verdict: r
// against the certified radius must decide what the range analogues of the
// lemmas decide as they are printed — some single share with r + δ <=
// Dist(P, n_k), else the disc (q, r) covered by R_c under the arc arrangement.
func TestRangeThresholdMatchesCoversCircle(t *testing.T) {
	scenes := 40000
	if testing.Short() {
		scenes = 4000
	}
	rng := rand.New(rand.NewSource(2402))
	counts := map[Source]int{}
	for i := 0; i < scenes; i++ {
		sc := drawPeerScene(rng, 12)
		// Radii around the largest single reach, where the three verdicts meet.
		r := rng.Float64() * 50
		for _, p := range sc.peers {
			if !p.IsEmpty() {
				r = max(r, (0.7+0.6*rng.Float64())*p.Reach(sc.q))
			}
		}
		if rng.Intn(20) == 0 {
			r = 0
		}
		want := SolvedUncertain
		for _, p := range sc.peers {
			if !p.IsEmpty() && r+sc.q.Dist(p.QueryLoc) <= p.Radius()+geom.Eps {
				want = SolvedBySinglePeer
			}
		}
		region := CertainRegion(sc.peers)
		if want == SolvedUncertain && !region.IsEmpty() && geomtest.CoversCircle(region, geom.NewCircle(sc.q, r)) {
			want = SolvedByMultiPeer
		}
		got := RangeQuery(sc.q, r, sc.peers, nil, Options{})
		if got.Source != want || got.Certain != (want != SolvedUncertain) {
			t.Fatalf("scene %d (r %v, %d shares at %v): %v certain %v, printed lemmas say %v", i, r, len(sc.peers), sc.q, got.Source, got.Certain, want)
		}
		counts[want]++
	}
	t.Logf("%d scenes: %v", scenes, counts)
	for _, src := range []Source{SolvedBySinglePeer, SolvedByMultiPeer, SolvedUncertain} {
		if counts[src] < scenes/50 {
			t.Errorf("only %d of %d scenes ended %v; fixture too weak", counts[src], scenes, src)
		}
	}
}

// PeersUsed has one meaning wherever it is reported: the non-empty shares the
// peer phase received — not the slots gathered, not the peers visited before
// an early exit.
func TestPeersUsedCountsNonEmptyShares(t *testing.T) {
	pois := []POI{
		{ID: 1, Loc: geom.Pt(1, 0)}, {ID: 2, Loc: geom.Pt(0, 2)},
		{ID: 3, Loc: geom.Pt(-3, 0)}, {ID: 4, Loc: geom.Pt(0, -40)},
	}
	q := geom.Pt(0, 0)
	peers := []PeerCache{
		{QueryLoc: geom.Pt(0.5, 0)}, // empty, and the nearest to q
		honestCache(geom.Pt(0, 0.1), pois, 3),
		honestCache(geom.Pt(0.2, 0), pois, 2),
		{QueryLoc: geom.Pt(9, 9)}, // empty
		honestCache(geom.Pt(0, -30), pois, 1),
	}
	// The first non-empty share answers k = 1 alone: the paper's loop would
	// have stopped there having visited one.
	if res := SENN(q, 1, peers, nil, Options{}); res.Source != SolvedBySinglePeer || res.PeersUsed != 3 {
		t.Errorf("SENN: %v with PeersUsed %d, want single-peer with 3", res.Source, res.PeersUsed)
	}
	if res := RangeQuery(q, 1.5, peers, nil, Options{}); !res.Certain || res.PeersUsed != 3 {
		t.Errorf("RangeQuery: certain %v with PeersUsed %d, want certain with 3", res.Certain, res.PeersUsed)
	}
	var s VerifierScratch
	if used, _ := s.VerifyPeers(q, 4, peers, NewResultHeap(4)); used != 3 {
		t.Errorf("VerifyPeers: used %d, want 3", used)
	}
	if res := SENN(q, 1, peers[:1], nil, Options{}); res.PeersUsed != 0 {
		t.Errorf("SENN over one empty share: PeersUsed %d, want 0", res.PeersUsed)
	}
}

// What the heap holds is a function of the set of candidates added — the
// (distance, ID) order leaves arrival order nothing to decide, even between
// distinct POIs at exactly equal distance.
func TestHeapContentIgnoresArrivalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(2403))
	for trial := 0; trial < 2000; trial++ {
		// A coarse lattice around q forces exact distance ties.
		cands := make([]Candidate, 1+rng.Intn(30))
		for i := range cands {
			loc := geom.Pt(float64(rng.Intn(5)-2), float64(rng.Intn(5)-2))
			d := geom.Pt(0, 0).Dist(loc)
			cands[i] = Candidate{POI: POI{ID: int64(i), Loc: loc}, Dist: d, Certain: d <= 1.5}
		}
		k := 1 + rng.Intn(12)
		a, b := NewResultHeap(k), NewResultHeap(k)
		for _, c := range cands {
			a.Add(c)
		}
		rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
		for _, c := range cands {
			b.Add(c)
		}
		ea, eb := a.Entries(), b.Entries()
		if len(ea) != len(eb) {
			t.Fatalf("trial %d: %d entries one way, %d the other", trial, len(ea), len(eb))
		}
		for i := range ea {
			if ea[i] != eb[i] {
				t.Fatalf("trial %d: entry %d is %+v one way, %+v the other", trial, i, ea[i], eb[i])
			}
		}
	}
}
