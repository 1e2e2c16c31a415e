package sim

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/nn"
)

func smokeConfig() Config {
	return Config{
		AreaWidth:        1000,
		AreaHeight:       1000,
		NumHosts:         40,
		NumPOIs:          12,
		CacheSize:        6,
		KMin:             1,
		KMax:             4,
		TxRange:          200,
		Velocity:         13,
		MovePercentage:   0.8,
		MaxPause:         10,
		QueriesPerMinute: 60,
		Duration:         120,
		Mode:             ModeFreeMovement,
		RTreeFanout:      8,
		Seed:             42,
	}
}

func TestRunTwicePanics(t *testing.T) {
	w, err := New(smokeConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The guard exists precisely because the query engine stays armed after
	// the first run: its batch buffers look ready, but the event clock and
	// host caches are consumed.
	if w.qengine == nil {
		t.Fatal("world built without a live query engine")
	}
	w.Run()
	defer func() {
		if recover() == nil {
			t.Error("second Run did not panic")
		}
	}()
	w.Run()
}

// TestServerKNNExcludesLowerBoundPOI pins the boundary behavior the
// server-fallback merge in executeQuery depends on: the EINN lower bound is
// inclusive, so the POI whose distance equals the last certain distance is
// never re-fetched and the certified prefix cannot gain a duplicate.
func TestServerKNNExcludesLowerBoundPOI(t *testing.T) {
	q := geom.Pt(0, 0)
	pois := []core.POI{
		{ID: 0, Loc: geom.Pt(1, 0)},
		{ID: 1, Loc: geom.Pt(2, 0)},
		{ID: 2, Loc: geom.Pt(3, 0)},
		{ID: 3, Loc: geom.Pt(4, 0)},
	}
	srv := NewServerModule(pois, 4)
	// The client is certain of POI 0 at distance 1; the merge appends the
	// server's answer to that prefix.
	b := nn.Bounds{Lower: q.Dist(pois[0].Loc), HasLower: true}
	fetched := srv.KNN(q, 2, b)
	if len(fetched) != 2 {
		t.Fatalf("fetched %d POIs, want 2", len(fetched))
	}
	for _, p := range fetched {
		if p.ID == 0 {
			t.Fatalf("server re-fetched the certain POI at the lower bound: %v", fetched)
		}
	}
	if fetched[0].ID != 1 || fetched[1].ID != 2 {
		t.Errorf("fetched = %v, want POIs 1 and 2 in distance order", fetched)
	}
}

// TestRangeBreaksDistanceTiesByID pins the Range determinism rule: hits at
// exactly equal distance come back in ascending POI ID order, independent of
// the R*-tree's internal layout (the same tie-break the INE path uses).
func TestRangeBreaksDistanceTiesByID(t *testing.T) {
	q := geom.Pt(0, 0)
	// Four POIs at identical distance 5, IDs deliberately scrambled relative
	// to insertion order, plus a nearer POI and one just out of range.
	pois := []core.POI{
		{ID: 7, Loc: geom.Pt(5, 0)},
		{ID: 1, Loc: geom.Pt(-5, 0)},
		{ID: 5, Loc: geom.Pt(0, 5)},
		{ID: 3, Loc: geom.Pt(0, -5)},
		{ID: 9, Loc: geom.Pt(1, 0)},
		{ID: 0, Loc: geom.Pt(6, 0)},
	}
	srv := NewServerModule(pois, 4)
	got := srv.Range(q, 5.5)
	want := []int64{9, 1, 3, 5, 7}
	if len(got) != len(want) {
		t.Fatalf("Range returned %d POIs, want %d: %v", len(got), len(want), got)
	}
	for i, p := range got {
		if p.ID != want[i] {
			t.Fatalf("Range order = %v, want IDs %v (ties broken by ID)", got, want)
		}
	}
}

// TestNoDuplicatePOIsInAnswersOrCaches audits a full simulation run: no
// query answer and no stored peer cache may contain the same POI twice, and
// every cache must stay an exact distance prefix (ascending distances).
func TestNoDuplicatePOIsInAnswersOrCaches(t *testing.T) {
	cfg := smokeConfig()
	cfg.Seed = 7
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	w.SetAudit(func(q geom.Point, k int, answer []core.Candidate, src core.Source) {
		seen := make(map[int64]bool, len(answer))
		for _, c := range answer {
			if seen[c.ID] {
				t.Errorf("duplicate POI %d in %v answer at %v", c.ID, src, q)
			}
			seen[c.ID] = true
		}
		checked++
	})
	w.Run()
	if checked == 0 {
		t.Fatal("audit saw no queries")
	}
	for _, pc := range w.PeerCachesSnapshot() {
		seen := make(map[int64]bool, len(pc.Neighbors))
		prev := -1.0
		for _, p := range pc.Neighbors {
			if seen[p.ID] {
				t.Errorf("duplicate POI %d in cached result at %v", p.ID, pc.QueryLoc)
			}
			seen[p.ID] = true
			if d := pc.QueryLoc.Dist(p.Loc); d < prev-geom.Eps {
				t.Errorf("cache at %v not in distance order: %v after %v", pc.QueryLoc, d, prev)
			} else {
				prev = d
			}
		}
	}
}

// TestRangeAnswerOrderSameFromPeersAndServer pins the one total order of a
// range answer — ascending distance, equal distances by POI ID — across the
// three ways core.RangeQuery can resolve: on lattice data (every ring of the
// query disc is a four-way distance tie, IDs scrambled against position) a
// single covering peer, two flanking peers and the server must list the same
// POIs in the same order.
func TestRangeAnswerOrderSameFromPeersAndServer(t *testing.T) {
	var pois []core.POI
	for i := 0; i < 81; i++ {
		pois = append(pois, core.POI{
			ID:  int64(i * 37 % 81),
			Loc: geom.Pt(float64(i%9-4)*10, float64(i/9-4)*10),
		})
	}
	srv := NewServerModule(pois, 4)
	peerAt := func(loc geom.Point, k int) core.PeerCache {
		return core.NewPeerCache(loc, srv.KNN(loc, k, nn.Bounds{}))
	}
	q, r := geom.Pt(0, 0), 15.0

	cases := []struct {
		name  string
		peers []core.PeerCache
		src   core.Source
	}{
		// One certain circle holds the whole disc; the cache is ordered by
		// distance from (3, 2), not from q.
		{"single-peer", []core.PeerCache{peerAt(geom.Pt(3, 2), 45)}, core.SolvedBySinglePeer},
		// Neither circle holds the disc (15 + 12 exceeds both radii), their
		// union does.
		{"multi-peer", []core.PeerCache{peerAt(geom.Pt(-12, 0), 14), peerAt(geom.Pt(12, 0), 14)}, core.SolvedByMultiPeer},
		{"server", nil, core.SolvedByServer},
	}
	var want []int64
	for _, p := range srv.Range(q, r) {
		want = append(want, p.ID)
	}
	if len(want) != 9 {
		t.Fatalf("server range answer has %d POIs, want the 9 of the two inner lattice rings", len(want))
	}
	for _, tc := range cases {
		res := core.RangeQuery(q, r, tc.peers, srv, core.Options{})
		if res.Source != tc.src || !res.Certain {
			t.Fatalf("%s: resolved by %v (certain=%v), want %v", tc.name, res.Source, res.Certain, tc.src)
		}
		var got []int64
		for _, p := range res.POIs {
			got = append(got, p.ID)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: answer order %v, want %v (dist, then ID)", tc.name, got, want)
		}
	}
}
