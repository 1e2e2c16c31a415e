package client_test

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/cache"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/nn"
)

// bruteServer answers kNN by exhaustive scan with the exact EINN bound
// semantics (strictly beyond the lower bound, within the upper bound). It
// implements both core.Server and client.Server so the same fixture backs
// the reference core.SENN and the Resolver under test.
type bruteServer struct {
	pois  []core.POI
	calls int
}

func (s *bruteServer) knn(q geom.Point, k int, b nn.Bounds) []core.POI {
	var out []core.POI
	for _, p := range s.pois {
		d := q.Dist(p.Loc)
		if b.HasLower && d <= b.Lower {
			continue
		}
		if b.HasUpper && d > b.Upper {
			continue
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return q.Dist(out[i].Loc) < q.Dist(out[j].Loc) })
	if len(out) > k {
		out = out[:k]
	}
	return out
}

func (s *bruteServer) KNN(q geom.Point, k int, b nn.Bounds) []core.POI {
	s.calls++
	return s.knn(q, k, b)
}

func (s *bruteServer) KNNInto(q geom.Point, k int, b nn.Bounds, dst []core.POI) ([]core.POI, int64, error) {
	s.calls++
	return append(dst[:0], s.knn(q, k, b)...), 1, nil
}

// slicePeers is a fixed-peer PeerSource with unit accounting.
type slicePeers struct {
	peers []core.PeerCache
}

func (s *slicePeers) Gather(q geom.Point, dst []core.PeerCache) ([]core.PeerCache, int64, int64) {
	return append(dst, s.peers...), int64(1 + len(s.peers)), 0
}

// randomWorld draws n POIs with distinct coordinates (ties would make the
// answer comparison order-dependent).
func randomWorld(rng *rand.Rand, n int) []core.POI {
	pois := make([]core.POI, n)
	for i := range pois {
		pois[i] = core.POI{
			ID:  int64(i + 1),
			Loc: geom.Pt(rng.Float64()*1000, rng.Float64()*1000),
		}
	}
	return pois
}

// peerAt builds a peer cache holding the true c nearest neighbors of loc —
// exactly what a host that just asked the server at loc would cache.
func peerAt(srv *bruteServer, loc geom.Point, c int) core.PeerCache {
	return core.NewPeerCache(loc, srv.knn(loc, c, nn.Bounds{}))
}

// TestResolveMatchesSENNOracle is the package's conformance gate: over many
// random worlds the Resolver must agree with the reference core.SENN —
// same resolution source, same answer IDs and distances — on every path
// (single-peer, multi-peer, uncertain, server fallback). A cacheless
// request sizes the heap at exactly k, which is the configuration the
// reference implementation runs.
func TestResolveMatchesSENNOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	r := client.NewResolver()
	srcCounts := map[core.Source]int{}
	for trial := 0; trial < 400; trial++ {
		srv := &bruteServer{pois: randomWorld(rng, 60+rng.Intn(100))}
		q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		k := 1 + rng.Intn(8)
		accept := rng.Intn(2) == 0
		numPeers := rng.Intn(6)
		peers := make([]core.PeerCache, 0, numPeers)
		for i := 0; i < numPeers; i++ {
			loc := geom.Pt(q.X+rng.NormFloat64()*120, q.Y+rng.NormFloat64()*120)
			peers = append(peers, peerAt(srv, loc, 1+rng.Intn(12)))
		}

		want := core.SENN(q, k, peers, srv, core.Options{AcceptUncertain: accept})

		r.ResetArena()
		got := r.Resolve(client.Request{
			Q: q, K: k, AcceptUncertain: accept, NeedAnswer: true,
		}, &slicePeers{peers: peers}, srv)
		srcCounts[got.Src]++

		if got.Src != want.Source {
			t.Fatalf("trial %d: source %v, oracle %v", trial, got.Src, want.Source)
		}
		if got.Err != nil {
			t.Fatalf("trial %d: unexpected error %v", trial, got.Err)
		}
		if len(got.Answer) != len(want.Neighbors) {
			t.Fatalf("trial %d (%v): %d answers, oracle %d",
				trial, got.Src, len(got.Answer), len(want.Neighbors))
		}
		for i, c := range got.Answer {
			if c.ID != want.Neighbors[i].ID || c.Dist != want.Neighbors[i].Dist {
				t.Fatalf("trial %d (%v): answer %d = (%d, %g), oracle (%d, %g)",
					trial, got.Src, i, c.ID, c.Dist, want.Neighbors[i].ID, want.Neighbors[i].Dist)
			}
		}
		if got.PeerSolved() != (want.Source != core.SolvedByServer) {
			t.Fatalf("trial %d: PeerSolved %v for source %v", trial, got.PeerSolved(), got.Src)
		}
	}
	// The fixture must actually exercise every path, or the oracle proves
	// nothing.
	for _, src := range []core.Source{
		core.SolvedBySinglePeer, core.SolvedByMultiPeer,
		core.SolvedUncertain, core.SolvedByServer,
	} {
		if srcCounts[src] == 0 {
			t.Errorf("no trial resolved via %v; fixture too weak", src)
		}
	}
}

// TestResolveCachePolicy pins both cache policies end to end: the server
// fallback tops the fetch up to cache capacity (policy 2) and the staged
// write holds the true capacity-sized NN prefix of the query point
// (policy 1) — so applying it and re-asking from the same spot peer-solves
// from the local cache alone.
func TestResolveCachePolicy(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	srv := &bruteServer{pois: randomWorld(rng, 200)}
	q := geom.Pt(500, 500)
	const k, capacity = 3, 10
	c := cache.New(capacity)
	r := client.NewResolver()

	out := r.Resolve(client.Request{Q: q, K: k, Cache: c, NeedAnswer: true}, nil, srv)
	if out.Src != core.SolvedByServer || out.Err != nil {
		t.Fatalf("cold query: src %v err %v, want server-solved", out.Src, out.Err)
	}
	if !out.Write.Staged() {
		t.Fatal("cold query staged no cache write")
	}
	out.Write.Apply(c)
	ent, ok := c.Entry()
	if !ok {
		t.Fatal("cache empty after Apply")
	}
	truth := srv.knn(q, capacity, nn.Bounds{})
	if len(ent.Neighbors) != capacity {
		t.Fatalf("cached %d POIs, want capacity %d (policy 2 top-up)", len(ent.Neighbors), capacity)
	}
	for i, p := range truth {
		if ent.Neighbors[i].ID != p.ID {
			t.Fatalf("cached neighbor %d = POI %d, want %d", i, ent.Neighbors[i].ID, p.ID)
		}
	}

	// Same location, k ≤ capacity: the own-cache entry alone certifies the
	// answer with no peer source and no server contact.
	calls := srv.calls
	r.ResetArena()
	out = r.Resolve(client.Request{Q: q, K: k, Cache: c, NeedAnswer: true}, nil, srv)
	if out.Src != core.SolvedBySinglePeer {
		t.Fatalf("warm query: src %v, want single-peer (own cache)", out.Src)
	}
	if srv.calls != calls {
		t.Fatal("warm query contacted the server")
	}
	if out.Msgs != 0 || out.PeersUsed != 1 {
		t.Fatalf("warm query: msgs %d peers %d, want 0 msgs from nil source, 1 peer", out.Msgs, out.PeersUsed)
	}
	for i, p := range truth[:k] {
		if out.Answer[i].ID != p.ID {
			t.Fatalf("warm answer %d = POI %d, want %d", i, out.Answer[i].ID, p.ID)
		}
	}
}

// TestResolveNilServer models a host with no connectivity: the best
// available answer comes back as SolvedUncertain, mirroring core.SENN.
func TestResolveNilServer(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	srv := &bruteServer{pois: randomWorld(rng, 50)}
	q := geom.Pt(500, 500)
	peers := []core.PeerCache{peerAt(srv, geom.Pt(480, 510), 2)}
	r := client.NewResolver()
	out := r.Resolve(client.Request{Q: q, K: 10, NeedAnswer: true}, &slicePeers{peers: peers}, nil)
	if out.Src != core.SolvedUncertain || out.Err != nil {
		t.Fatalf("src %v err %v, want uncertain best effort", out.Src, out.Err)
	}
	if len(out.Answer) >= 10 {
		t.Fatalf("disconnected host certified %d answers from a 2-POI peer", len(out.Answer))
	}
}

// errServer always fails; the outcome must surface the transport error.
type errServer struct{ err error }

func (s errServer) KNNInto(geom.Point, int, nn.Bounds, []core.POI) ([]core.POI, int64, error) {
	return nil, 0, s.err
}

type sentinelErr struct{}

func (sentinelErr) Error() string { return "server unreachable" }

func TestResolveServerError(t *testing.T) {
	r := client.NewResolver()
	out := r.Resolve(client.Request{Q: geom.Pt(0, 0), K: 3, NeedAnswer: true}, nil, errServer{err: sentinelErr{}})
	if out.Err == nil || out.Src != core.SolvedByServer {
		t.Fatalf("got src %v err %v, want server-path error", out.Src, out.Err)
	}
	if out.Write.Staged() || out.Answer != nil {
		t.Fatal("failed query staged a write or returned an answer")
	}
}

// Outcome.PeersUsed is core.Result.PeersUsed: the non-empty shares received,
// own entry included — not the slots the source gathered.
func TestResolvePeersUsedSkipsEmptyShares(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	srv := &bruteServer{pois: randomWorld(rng, 80)}
	q := geom.Pt(500, 500)
	own := cache.New(10)
	own.Store(geom.Pt(505, 500), srv.knn(geom.Pt(505, 500), 10, nn.Bounds{}))
	peers := []core.PeerCache{
		{QueryLoc: geom.Pt(500, 501)}, // empty, and the nearest to q
		peerAt(srv, geom.Pt(490, 495), 8),
		{QueryLoc: geom.Pt(520, 520)}, // empty
		peerAt(srv, geom.Pt(515, 480), 6),
	}
	r := client.NewResolver()
	out := r.Resolve(client.Request{Q: q, K: 2, Cache: own}, &slicePeers{peers: peers}, srv)
	ent, _ := own.Entry()
	want := core.SENN(q, 2, append([]core.PeerCache{ent}, peers...), srv, core.Options{})
	if out.PeersUsed != 3 || want.PeersUsed != 3 || out.Msgs != 5 {
		t.Fatalf("PeersUsed %d (core.SENN %d) with %d messages, want 3 and 3 of the 5 gathered", out.PeersUsed, want.PeersUsed, out.Msgs)
	}
}
