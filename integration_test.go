package senn

// integration_test.go exercises whole-system flows across module
// boundaries: SENN feeding SNNN, the range-query extension against the
// R*-tree server, and peer populations produced by an actual simulation.

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/client"
	"repro/internal/nn"
	"repro/internal/rtree"
	"repro/internal/sim"
	"repro/internal/spatialnet"
)

// TestSNNNOverSENNMatchesBruteForce drives the complete §3.4 pipeline: the
// Euclidean candidate stream comes from SENN (peers + bounded server
// fallback), network distances come from a generated road network, and the
// result must equal the brute-force network kNN over all POIs.
func TestSNNNOverSENNMatchesBruteForce(t *testing.T) {
	roads, err := GenerateRoadNetwork(GridConfig{
		Width: 3000, Height: 3000, Spacing: 250, SecondaryEvery: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	edges := roads.Edges()
	pois := make([]POI, 50)
	for i := range pois {
		e := edges[rng.Intn(len(edges))]
		pois[i] = POI{ID: int64(i), Loc: roads.Loc(e.From).Lerp(roads.Loc(e.To), rng.Float64())}
	}
	db := NewDatabase(pois)
	var peers []PeerCache
	for i := 0; i < 10; i++ {
		loc := Pt(rng.Float64()*3000, rng.Float64()*3000)
		peers = append(peers, NewPeerCache(loc, db.KNN(loc, 8, Bounds{})))
	}

	search := NewRoadSearch(roads)
	for trial := 0; trial < 10; trial++ {
		q := Pt(rng.Float64()*3000, rng.Float64()*3000)
		k := 1 + rng.Intn(4)
		fetch := func(n int) []POI {
			r := Query(q, n, peers, db, QueryOptions{})
			out := make([]POI, len(r.Neighbors))
			for i, rp := range r.Neighbors {
				out[i] = rp.POI
			}
			return out
		}
		got := NetworkQuery(search, q, k, fetch)
		want := spatialnet.BruteForceNetworkKNN(search, q, k, pois)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d results, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if math.Abs(got[i].ND-want[i].ND) > 1e-6 {
				t.Fatalf("trial %d rank %d: ND %v, want %v", trial, i+1, got[i].ND, want[i].ND)
			}
		}
	}
}

// resolverServer mounts a Database as the client core's server channel.
type resolverServer struct {
	db *Database
	it nn.Iterator[rtree.Node]
}

func (s *resolverServer) KNNInto(q Point, k int, b Bounds, dst []POI) ([]POI, int64, error) {
	out, pages := s.db.KNNInto(q, k, b, &s.it, dst)
	return out, pages, nil
}

// TestSNNNExchangesPerQuery pins what a network query costs a Table-4 Los
// Angeles host (30×30 mi road grid, 4,050 POIs, C_Size 20, k = λ_kNN = 5) in
// the two units §3.4 spends: SENN exchanges and Dijkstra settles. A fetch is
// the real client pipeline — client.Resolver over the host's own cache with
// the server behind it — so one exchange leaves the cache holding the C_Size
// nearest POIs and SNNN reads its candidates off that entry; Algorithm 2 as
// printed ran 8.3 exchanges per query on this scene, one per extra candidate.
func TestSNNNExchangesPerQuery(t *testing.T) {
	cfg, err := PaperConfig(LosAngeles, Area30mi).Validate()
	if err != nil {
		t.Fatal(err)
	}
	roads, err := GenerateRoadNetwork(GridConfig{Width: cfg.AreaWidth, Height: cfg.AreaHeight,
		Spacing: cfg.RoadSpacing, SecondaryEvery: 5, HighwayEvery: 20})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	pois := sim.RandomPOIs(cfg.NumPOIs, cfg.Bounds(), rng)
	srv := &resolverServer{db: NewDatabaseFanout(pois, cfg.RTreeFanout)}
	resolver := client.NewResolver()
	search := NewRoadSearch(roads)

	const queries, k = 200, 5
	exchanges, settles, worst := 0, 0, 0
	for trial := 0; trial < queries; trial++ {
		q := Pt(rng.Float64()*cfg.AreaWidth, rng.Float64()*cfg.AreaHeight)
		own := cache.New(cfg.CacheSize) // a host that has not queried here before
		made := 0
		fetch := func(n int) []POI {
			made++
			out := resolver.Resolve(client.Request{Q: q, K: n, Cache: own, NeedAnswer: true}, nil, srv)
			if out.Err != nil {
				t.Fatal(out.Err)
			}
			out.Write.Apply(own)
			resolver.ResetArena()
			if ent, ok := own.Entry(); ok && len(ent.Neighbors) >= len(out.Answer) {
				return ent.Neighbors // every neighbour the exchange certified, up to C_Size
			}
			answer := make([]POI, len(out.Answer)) // asked for more than the cache keeps
			for i, c := range out.Answer {
				answer[i] = c.POI
			}
			return answer
		}
		got := NetworkQuery(search, q, k, fetch)
		exchanges += made
		settles += search.Settled()
		worst = max(worst, made)
		if trial%10 != 0 {
			continue // pricing all 4,050 POIs is the slow part: one query in ten
		}
		want := spatialnet.BruteForceNetworkKNN(search, q, k, pois)
		if len(got) != len(want) {
			t.Fatalf("query %d: got %d results, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("query %d rank %d: %+v, want %+v", trial, i+1, got[i], want[i])
			}
		}
	}
	perQuery := func(n int) float64 { return float64(n) / queries }
	t.Logf("%d queries: %.2f exchanges (worst %d) and %.1f of %d nodes settled per query",
		queries, perQuery(exchanges), worst, perQuery(settles), roads.NumNodes())
	if perQuery(exchanges) > 2 {
		t.Errorf("%.2f exchanges per query, want at most 2: candidates are not read off the certified prefix", perQuery(exchanges))
	}
	if perQuery(settles) > 40 {
		t.Errorf("%.1f nodes settled per query, want at most 40: the expansion is not bounded by S_bound", perQuery(settles))
	}
}

// TestRangeQueryAgainstServerOracle validates the range extension end to end
// over the R*-tree server.
func TestRangeQueryAgainstServerOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	pois := make([]POI, 300)
	for i := range pois {
		pois[i] = POI{ID: int64(i), Loc: Pt(rng.Float64()*2000, rng.Float64()*2000)}
	}
	db := NewDatabase(pois)
	var peers []PeerCache
	for i := 0; i < 8; i++ {
		loc := Pt(rng.Float64()*2000, rng.Float64()*2000)
		peers = append(peers, NewPeerCache(loc, db.KNN(loc, 20, Bounds{})))
	}

	for trial := 0; trial < 50; trial++ {
		q := Pt(rng.Float64()*2000, rng.Float64()*2000)
		r := rng.Float64() * 400
		res := RangeQueryWithin(q, r, peers, db, QueryOptions{})
		if !res.Certain {
			t.Fatalf("trial %d: server-backed range query not certain", trial)
		}
		want := map[int64]bool{}
		for _, p := range pois {
			if q.Dist(p.Loc) <= r {
				want[p.ID] = true
			}
		}
		if len(res.POIs) != len(want) {
			t.Fatalf("trial %d (src %v): got %d POIs, want %d",
				trial, res.Source, len(res.POIs), len(want))
		}
		for _, p := range res.POIs {
			if !want[p.ID] {
				t.Fatalf("trial %d: unexpected POI %d", trial, p.ID)
			}
		}
	}
}

// TestSimulationPeersAreValidCaches runs a short simulation and then
// validates that every cache the hosts hold is a sound shareable result: an
// exact distance prefix of the POI set around its query location.
func TestSimulationPeersAreValidCaches(t *testing.T) {
	cfg := PaperConfig(LosAngeles, Area2mi)
	cfg.Duration = 600
	w, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_ = w.Run()
	pois := w.Server().POIs()

	checked := 0
	// Reconstruct peer caches by querying the same infrastructure the
	// simulator uses: collect every host's cache via a fresh SENN query
	// audit is not needed — validate through the server's POI set directly.
	for _, pc := range harvestCaches(w) {
		if pc.IsEmpty() {
			continue
		}
		checked++
		// Every POI strictly inside the cache circle must be cached.
		r := pc.Radius()
		cached := map[int64]bool{}
		for _, n := range pc.Neighbors {
			cached[n.ID] = true
		}
		for _, p := range pois {
			if pc.QueryLoc.Dist(p.Loc) < r-1e-9 && !cached[p.ID] {
				t.Fatalf("cache at %v radius %.1f misses POI %d at %.1f — not an exact prefix",
					pc.QueryLoc, r, p.ID, pc.QueryLoc.Dist(p.Loc))
			}
		}
	}
	if checked < 50 {
		t.Errorf("only %d caches to check; run too short", checked)
	}
}

// harvestCaches extracts the current cache entries of all hosts.
func harvestCaches(w *Simulation) []PeerCache {
	return w.PeerCachesSnapshot()
}
