package senn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/experiments"
)

// newRand keeps seeded construction uniform across the root tests/benches.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// TestFacadeQueryRoundTrip exercises the public API end to end: database,
// peer caches, SENN query, verification helpers.
func TestFacadeQueryRoundTrip(t *testing.T) {
	rng := newRand(1)
	pois := make([]POI, 200)
	for i := range pois {
		pois[i] = POI{ID: int64(i), Loc: Pt(rng.Float64()*5000, rng.Float64()*5000)}
	}
	db := NewDatabase(pois)

	peerLoc := Pt(2500, 2500)
	peer := NewPeerCache(peerLoc, db.KNN(peerLoc, 15, Bounds{}))
	db.ResetStats()

	q := Pt(2520, 2510)
	res := Query(q, 3, []PeerCache{peer}, db, QueryOptions{})
	if len(res.Neighbors) != 3 {
		t.Fatalf("got %d neighbors", len(res.Neighbors))
	}
	if res.Source != SolvedBySinglePeer {
		t.Errorf("expected single-peer resolution next to the peer's cache, got %v", res.Source)
	}
	// Verify against a direct (unshared) database answer.
	direct := db.KNN(q, 3, Bounds{})
	for i := range direct {
		if direct[i].ID != res.Neighbors[i].ID {
			t.Fatalf("facade answer differs from direct query at rank %d", i+1)
		}
	}
}

func TestFacadeHeapAndVerification(t *testing.T) {
	h := NewResultHeap(2)
	peer := NewPeerCache(Pt(1, 0), []POI{
		{ID: 1, Loc: Pt(0, 1)},
		{ID: 2, Loc: Pt(4, 0)},
	})
	VerifySinglePeer(Pt(0, 0), peer, h)
	if h.NumCertain() != 1 {
		t.Errorf("certain = %d, want 1", h.NumCertain())
	}
	VerifyMultiPeer(Pt(0, 0), []PeerCache{peer}, h)
	if h.Len() == 0 {
		t.Error("heap empty after verification")
	}
}

func TestFacadeNetworkQuery(t *testing.T) {
	roads, err := GenerateRoadNetwork(GridConfig{
		Width: 1000, Height: 1000, Spacing: 100, SecondaryEvery: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	pois := []POI{
		{ID: 1, Loc: Pt(100, 100)},
		{ID: 2, Loc: Pt(900, 900)},
		{ID: 3, Loc: Pt(500, 480)},
	}
	db := NewDatabase(pois)
	q := Pt(480, 500)
	fetch := func(n int) []POI { return db.KNN(q, n, Bounds{}) }
	search := NewRoadSearch(roads)
	res := NetworkQuery(search, q, 1, fetch)
	if len(res) != 1 || res[0].ID != 3 {
		t.Fatalf("network NN = %v, want POI 3", res)
	}
	if res[0].ND < res[0].ED {
		t.Errorf("ND %v < ED %v", res[0].ND, res[0].ED)
	}
	if nd, ok := NetworkDistance(search, q, pois[2].Loc); !ok || nd != res[0].ND {
		t.Errorf("NetworkDistance = %v ok=%v, want the query's ND %v", nd, ok, res[0].ND)
	}
}

func TestFacadeSimulation(t *testing.T) {
	cfg := PaperConfig(Riverside, Area2mi)
	cfg.Duration = 300
	w, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := w.Run()
	total := m.SolvedBySingle + m.SolvedByMulti + m.SolvedByServer + m.SolvedUncertain
	if total != m.TotalQueries {
		t.Errorf("conservation violated: %v", m)
	}
}

func TestFacadeRegionCoverage(t *testing.T) {
	r := NewRegion(
		Circle{Center: Pt(-3, 0), Radius: 4},
		Circle{Center: Pt(3, 0), Radius: 4},
	)
	// The nearest points of the union's boundary to the origin are the two
	// vertices where the circles cross, (0, ±√7).
	if rho := r.MaxCoveredRadius(Pt(0, 0), 5); math.Abs(rho-math.Sqrt(7)) > 1e-9 {
		t.Errorf("covered radius at the origin = %v, want √7", rho)
	}
	if rho := r.MaxCoveredRadius(Pt(0, 9), 5); rho != 0 {
		t.Errorf("covered radius outside the union = %v, want 0", rho)
	}
}

func TestPaperConfigMatchesExperiments(t *testing.T) {
	got := PaperConfig(LosAngeles, Area30mi)
	want := experiments.BaseConfig(experiments.LosAngeles, experiments.Area30mi)
	if got.NumHosts != want.NumHosts || got.NumPOIs != want.NumPOIs {
		t.Error("facade PaperConfig diverges from experiments.BaseConfig")
	}
}
