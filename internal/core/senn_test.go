package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/nn"
	"repro/internal/rtree"
)

// rtreeServer adapts an R*-tree plus the EINN algorithm to the core.Server
// interface — the same wiring the simulator's server module uses.
type rtreeServer struct {
	tree    *rtree.Tree
	pois    []POI
	queries int
}

func newRtreeServer(pois []POI) *rtreeServer {
	t := rtree.Build(rtree.DefaultMaxEntries, len(pois), func(i int) geom.Point { return pois[i].Loc })
	return &rtreeServer{tree: t, pois: pois}
}

func (s *rtreeServer) KNN(q geom.Point, k int, b nn.Bounds) []POI {
	s.queries++
	results, _ := nn.EINN(s.tree, q, k, b)
	out := make([]POI, len(results))
	for i, r := range results {
		out[i] = s.pois[r.Ref]
	}
	return out
}

func randomScene(rng *rand.Rand, nPOI int, span float64) []POI {
	pois := make([]POI, nPOI)
	for i := range pois {
		pois[i] = POI{ID: int64(i), Loc: geom.Pt(rng.Float64()*span, rng.Float64()*span)}
	}
	return pois
}

// The headline correctness property: regardless of how much the peers
// contribute, SENN must return exactly the true k nearest neighbors whenever
// a server is available.
func TestSENNExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	for trial := 0; trial < 150; trial++ {
		span := 2000.0
		pois := randomScene(rng, 20+rng.Intn(200), span)
		srv := newRtreeServer(pois)
		q := geom.Pt(rng.Float64()*span, rng.Float64()*span)
		k := 1 + rng.Intn(10)

		nPeers := rng.Intn(6)
		var peers []PeerCache
		for i := 0; i < nPeers; i++ {
			loc := geom.Pt(q.X+rng.NormFloat64()*200, q.Y+rng.NormFloat64()*200)
			peers = append(peers, honestCache(loc, pois, 1+rng.Intn(12)))
		}

		res := SENN(q, k, peers, srv, Options{})
		want := trueKNN(q, pois, k)
		if len(res.Neighbors) != len(want) {
			t.Fatalf("trial %d: got %d neighbors, want %d (source %v)",
				trial, len(res.Neighbors), len(want), res.Source)
		}
		for i := range want {
			if res.Neighbors[i].ID != want[i].ID {
				t.Fatalf("trial %d: neighbor %d = POI %d (d=%v), want POI %d (d=%v); source=%v state=%v",
					trial, i, res.Neighbors[i].ID, res.Neighbors[i].Dist,
					want[i].ID, want[i].Dist, res.Source, res.State)
			}
			if res.Neighbors[i].Rank != i+1 {
				t.Fatalf("trial %d: neighbor %d rank %d", trial, i, res.Neighbors[i].Rank)
			}
		}
	}
}

// With no peers at all, SENN must degenerate to a plain server query.
func TestSENNNoPeers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pois := randomScene(rng, 50, 1000)
	srv := newRtreeServer(pois)
	q := geom.Pt(500, 500)
	res := SENN(q, 3, nil, srv, Options{})
	if res.Source != SolvedByServer {
		t.Errorf("source = %v, want server", res.Source)
	}
	if res.State != StateEmpty {
		t.Errorf("state = %v, want empty", res.State)
	}
	if res.Bounds.HasLower || res.Bounds.HasUpper {
		t.Errorf("no bounds expected, got %+v", res.Bounds)
	}
	if srv.queries != 1 {
		t.Errorf("server queried %d times", srv.queries)
	}
	want := trueKNN(q, pois, 3)
	for i := range want {
		if res.Neighbors[i].ID != want[i].ID {
			t.Fatalf("wrong result without peers")
		}
	}
}

// A peer whose cache covers the query generously must solve the query alone,
// without touching the server.
func TestSENNSolvedBySinglePeer(t *testing.T) {
	// POIs clustered around the origin; the peer queried from the origin
	// itself with a large k, so its certain circle dwarfs Q's needs.
	var pois []POI
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 30; i++ {
		pois = append(pois, POI{ID: int64(i), Loc: geom.Pt(rng.NormFloat64()*50, rng.NormFloat64()*50)})
	}
	srv := newRtreeServer(pois)
	peer := honestCache(geom.Pt(0, 0), pois, 20)
	q := geom.Pt(1, 1) // essentially at the peer's query location
	res := SENN(q, 3, []PeerCache{peer}, srv, Options{})
	if res.Source != SolvedBySinglePeer {
		t.Fatalf("source = %v, want single-peer", res.Source)
	}
	if srv.queries != 0 {
		t.Errorf("server should not be queried, got %d", srv.queries)
	}
	want := trueKNN(q, pois, 3)
	for i := range want {
		if res.Neighbors[i].ID != want[i].ID {
			t.Fatalf("single-peer answer wrong at %d", i)
		}
	}
	if res.PeersUsed != 1 {
		t.Errorf("PeersUsed = %d", res.PeersUsed)
	}
}

// Two flanking peers that individually cannot certify but jointly can: the
// query must resolve at the multi-peer stage.
func TestSENNSolvedByMultiPeer(t *testing.T) {
	target := POI{ID: 10, Loc: geom.Pt(0, 2.5)}
	f3 := POI{ID: 11, Loc: geom.Pt(-7, 0)}
	f4 := POI{ID: 12, Loc: geom.Pt(7, 0)}
	pois := []POI{target, f3, f4}
	srv := newRtreeServer(pois)
	p3 := NewPeerCache(geom.Pt(-3, 0), []POI{target, f3})
	p4 := NewPeerCache(geom.Pt(3, 0), []POI{target, f4})
	res := SENN(geom.Pt(0, 0), 1, []PeerCache{p3, p4}, srv, Options{})
	if res.Source != SolvedByMultiPeer {
		t.Fatalf("source = %v, want multi-peer", res.Source)
	}
	if srv.queries != 0 {
		t.Error("server should not be contacted")
	}
	if len(res.Neighbors) != 1 || res.Neighbors[0].ID != 10 {
		t.Fatalf("neighbors = %v", res.Neighbors)
	}
}

func TestSENNAcceptUncertain(t *testing.T) {
	// Peer data fills the heap but certifies nothing (peer far away with a
	// small certain circle).
	pois := []POI{
		{ID: 1, Loc: geom.Pt(100, 0)},
		{ID: 2, Loc: geom.Pt(110, 0)},
	}
	srv := newRtreeServer(pois)
	peer := honestCache(geom.Pt(105, 0), pois, 2)
	q := geom.Pt(0, 0)

	res := SENN(q, 2, []PeerCache{peer}, srv, Options{AcceptUncertain: true})
	if res.Source != SolvedUncertain {
		t.Fatalf("source = %v, want uncertain", res.Source)
	}
	if srv.queries != 0 {
		t.Error("server must not be contacted when uncertain is accepted")
	}
	for _, n := range res.Neighbors {
		if n.Rank != 0 {
			t.Errorf("uncertain neighbor carries rank %d", n.Rank)
		}
	}
	// Same query without the option must hit the server.
	res = SENN(q, 2, []PeerCache{peer}, srv, Options{})
	if res.Source != SolvedByServer || srv.queries != 1 {
		t.Fatalf("fallback to server expected, got %v/%d", res.Source, srv.queries)
	}
}

func TestSENNNilServer(t *testing.T) {
	pois := []POI{{ID: 1, Loc: geom.Pt(10, 0)}}
	peer := honestCache(geom.Pt(50, 0), pois, 1)
	res := SENN(geom.Pt(0, 0), 2, []PeerCache{peer}, nil, Options{})
	if res.Source != SolvedUncertain {
		t.Fatalf("nil server should yield the best-effort answer, got %v", res.Source)
	}
}

// The bounds SENN forwards to the server must let EINN return precisely the
// uncertified remainder — validated by comparing page accesses and results
// against an unbounded query.
func TestSENNServerBoundsConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	pois := randomScene(rng, 3000, 5000)
	srv := newRtreeServer(pois)
	for trial := 0; trial < 50; trial++ {
		q := geom.Pt(rng.Float64()*5000, rng.Float64()*5000)
		k := 2 + rng.Intn(8)
		var peers []PeerCache
		for i := 0; i < 3; i++ {
			loc := geom.Pt(q.X+rng.NormFloat64()*80, q.Y+rng.NormFloat64()*80)
			peers = append(peers, honestCache(loc, pois, 4+rng.Intn(8)))
		}
		res := SENN(q, k, peers, srv, Options{})
		want := trueKNN(q, pois, k)
		for i := range want {
			if res.Neighbors[i].ID != want[i].ID {
				t.Fatalf("trial %d: mismatch at %d", trial, i)
			}
		}
	}
}

func TestSourceStrings(t *testing.T) {
	for _, s := range []Source{SolvedBySinglePeer, SolvedByMultiPeer, SolvedUncertain, SolvedByServer, Source(42)} {
		if s.String() == "" {
			t.Errorf("empty string for source %d", int(s))
		}
	}
}

// SENN must remain exact when several peers share overlapping caches
// containing duplicate POIs.
func TestSENNDuplicatePOIsAcrossPeers(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pois := randomScene(rng, 60, 300)
	srv := newRtreeServer(pois)
	q := geom.Pt(150, 150)
	// Five peers all queried near the same spot: heavy duplication.
	var peers []PeerCache
	for i := 0; i < 5; i++ {
		loc := geom.Pt(150+rng.NormFloat64()*10, 150+rng.NormFloat64()*10)
		peers = append(peers, honestCache(loc, pois, 8))
	}
	res := SENN(q, 5, peers, srv, Options{})
	want := trueKNN(q, pois, 5)
	seen := map[int64]bool{}
	for i := range want {
		if res.Neighbors[i].ID != want[i].ID {
			t.Fatalf("mismatch at %d: got %d want %d", i, res.Neighbors[i].ID, want[i].ID)
		}
		if seen[res.Neighbors[i].ID] {
			t.Fatalf("duplicate POI %d in result", res.Neighbors[i].ID)
		}
		seen[res.Neighbors[i].ID] = true
	}
}

// When k exceeds the number of POIs in existence, SENN returns everything.
func TestSENNKExceedsPOICount(t *testing.T) {
	pois := []POI{
		{ID: 1, Loc: geom.Pt(1, 0)},
		{ID: 2, Loc: geom.Pt(2, 0)},
	}
	srv := newRtreeServer(pois)
	res := SENN(geom.Pt(0, 0), 5, nil, srv, Options{})
	if len(res.Neighbors) != 2 {
		t.Fatalf("got %d neighbors, want 2", len(res.Neighbors))
	}
	if math.Abs(res.Neighbors[0].Dist-1) > 1e-12 || math.Abs(res.Neighbors[1].Dist-2) > 1e-12 {
		t.Errorf("distances wrong: %v", res.Neighbors)
	}
}
