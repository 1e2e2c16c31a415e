package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/nn"
	"repro/internal/sim"
	"repro/internal/wire"
)

// testModule indexes the fixed random POI set every test server serves;
// calling it again yields an identical, independent module.
func testModule(nPOIs int) *sim.ServerModule {
	rng := rand.New(rand.NewSource(41))
	bounds := geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(10000, 10000)}
	return sim.NewServerModule(sim.RandomPOIs(nPOIs, bounds, rng), 30)
}

// testServerHandle boots a Server over a fresh random POI set, for tests
// that inspect the Server itself.
func testServerHandle(t *testing.T, nPOIs int, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(testModule(nPOIs), opts)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return s, srv
}

// testServer is testServerHandle returning the module instead, so oracle
// tests can query it directly.
func testServer(t *testing.T, nPOIs int, opts Options) (*httptest.Server, *sim.ServerModule) {
	t.Helper()
	s, srv := testServerHandle(t, nPOIs, opts)
	return srv, s.querier.Module()
}

// openSession POSTs /v1/session and dials the query WebSocket.
func openSession(t *testing.T, srv *httptest.Server) *WSConn {
	t.Helper()
	ws, err := tryOpenSession(srv)
	if err != nil {
		t.Fatal(err)
	}
	return ws
}

// sessionToken registers a session and returns its token.
func sessionToken(srv *httptest.Server) (string, error) {
	resp, err := http.Post(srv.URL+"/v1/session", "application/json", nil)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("session: status %d", resp.StatusCode)
	}
	var doc struct {
		Session string `json:"session"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return "", fmt.Errorf("session: %v", err)
	}
	return doc.Session, nil
}

func tryOpenSession(srv *httptest.Server) (*WSConn, error) {
	token, err := sessionToken(srv)
	if err != nil {
		return nil, err
	}
	return DialWS(wsURL(srv) + "/v1/ws?session=" + token)
}

// The acceptance bar for the whole server: a served kNN answer must be the
// byte-for-byte encoding of what the in-process ServerModule computes —
// same neighbors, same tie order, same page count.
func TestServedKNNMatchesOracle(t *testing.T) {
	srv, mod := testServer(t, 5000, Options{})
	oracle := sim.NewSnapshotQuerier(mod)
	ws := openSession(t, srv)
	defer ws.Close()

	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		q := wire.Query{
			ReqID: uint32(trial),
			K:     1 + rng.Intn(20),
			Loc:   geom.Pt(rng.Float64()*10000, rng.Float64()*10000),
		}
		if rng.Float64() < 0.3 {
			q.HasLower, q.Lower = true, rng.Float64()*200
		}
		if rng.Float64() < 0.3 {
			q.HasUpper, q.Upper = true, 300+rng.Float64()*2000
		}
		if err := ws.WriteBinary(wire.EncodeQuery(q)); err != nil {
			t.Fatalf("trial %d: write: %v", trial, err)
		}
		got, err := ws.ReadMessage()
		if err != nil {
			t.Fatalf("trial %d: read: %v", trial, err)
		}

		b := nn.Bounds{Lower: q.Lower, HasLower: q.HasLower, Upper: q.Upper, HasUpper: q.HasUpper}
		// The served query already bumped the module's counters; the oracle
		// call bumps them again, which is fine — counters are stats, not
		// answer content.
		neighbors, pages := oracle.KNN(q.Loc, q.K, b, nil)
		want := wire.EncodeAnswer(wire.Answer{
			ReqID: q.ReqID,
			Pages: pages,
			Cache: core.PeerCache{QueryLoc: q.Loc, Neighbors: neighbors},
		})
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d (k=%d): served answer differs from in-process oracle", trial, q.K)
		}
	}
}

// Same bar for range queries.
func TestServedRangeMatchesOracle(t *testing.T) {
	srv, mod := testServer(t, 5000, Options{})
	ws := openSession(t, srv)
	defer ws.Close()

	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 60; trial++ {
		rq := wire.RangeQuery{
			ReqID:  uint32(1000 + trial),
			Loc:    geom.Pt(rng.Float64()*10000, rng.Float64()*10000),
			Radius: 50 + rng.Float64()*400,
		}
		if err := ws.WriteBinary(wire.EncodeRange(rq)); err != nil {
			t.Fatalf("trial %d: write: %v", trial, err)
		}
		got, err := ws.ReadMessage()
		if err != nil {
			t.Fatalf("trial %d: read: %v", trial, err)
		}
		want := wire.EncodeAnswer(wire.Answer{
			ReqID: rq.ReqID,
			Cache: core.PeerCache{QueryLoc: rq.Loc, Neighbors: mod.Range(rq.Loc, rq.Radius)},
		})
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: served range answer differs from in-process oracle", trial)
		}
	}
}

// A Range whose disc holds more POIs than one answer may carry is refused
// with ErrCodeTooLarge, and the refusal is cheap: the search stopped at the
// cap instead of collecting, copying and sorting the whole store first. The
// connection stays usable, and an answer of exactly MaxAnswer POIs is served.
func TestOversizedRangeRefusedAtTheCap(t *testing.T) {
	const nPOIs = 20000
	srv, mod := testServer(t, nPOIs, Options{MaxAnswer: 500})
	ws := openSession(t, srv)
	defer ws.Close()
	exchange := func(rq wire.RangeQuery) wire.Message {
		t.Helper()
		if err := ws.WriteBinary(wire.EncodeRange(rq)); err != nil {
			t.Fatal(err)
		}
		data, err := ws.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		msg, err := wire.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		return msg
	}

	centre := geom.Pt(5000, 5000)
	diagonal := geom.Pt(0, 0).Dist(geom.Pt(10000, 10000))
	msg := exchange(wire.RangeQuery{ReqID: 11, Loc: centre, Radius: diagonal})
	if msg.Type != wire.TypeError || msg.Err.ReqID != 11 || msg.Err.Code != wire.ErrCodeTooLarge {
		t.Fatalf("whole-map range got %+v, want too-large error for req 11", msg)
	}
	st := fetchStats(t, srv)
	// 501 hits at no fewer than 12 per leaf, the inner nodes above those
	// leaves and one root-to-leaf path; the whole tree is ~950 nodes.
	if st.RangeQueries != 1 || st.PageAccesses > 501/12+1+8 {
		t.Fatalf("refused range: %d range queries, %d pages read", st.RangeQueries, st.PageAccesses)
	}

	// The radius whose disc holds exactly MaxAnswer POIs is served whole;
	// the next POI out tips it over.
	byDist := mod.Range(centre, 1500)
	if len(byDist) <= 500 {
		t.Fatalf("test geometry: only %d POIs within 1500 m", len(byDist))
	}
	atCap := (centre.Dist(byDist[499].Loc) + centre.Dist(byDist[500].Loc)) / 2
	msg = exchange(wire.RangeQuery{ReqID: 12, Loc: centre, Radius: atCap})
	if msg.Type != wire.TypeAnswer || msg.Answer.ReqID != 12 || !slices.Equal(msg.Answer.Cache.Neighbors, byDist[:500]) {
		t.Fatalf("range holding exactly MaxAnswer POIs: got type %v with %d neighbors", msg.Type, len(msg.Answer.Cache.Neighbors))
	}
	msg = exchange(wire.RangeQuery{ReqID: 13, Loc: centre, Radius: centre.Dist(byDist[500].Loc)})
	if msg.Type != wire.TypeError || msg.Err.Code != wire.ErrCodeTooLarge {
		t.Fatalf("range holding MaxAnswer+1 POIs got %+v, want too-large error", msg)
	}
	if st := fetchStats(t, srv); st.ProtoErrors != 0 {
		t.Fatalf("protocol_errors = %d: a refused range is an answer, not a violation", st.ProtoErrors)
	}
}

// /v1/stats.page_accesses is the sum of what each served traversal counted
// for itself, so kNN and Range traffic on concurrent connections must add up
// to exactly what a sequential in-process replay of the same queries reports
// on a fresh module.
func TestServedPageAccessesExactUnderConcurrentTraffic(t *testing.T) {
	const nPOIs, conns, perConn = 5000, 8, 150
	srv, _ := testServer(t, nPOIs, Options{})

	type op struct {
		loc    geom.Point
		k      int     // kNN when > 0
		radius float64 // Range otherwise
	}
	rng := rand.New(rand.NewSource(45))
	ops := make([][]op, conns)
	for c := range ops {
		ops[c] = make([]op, perConn)
		for i := range ops[c] {
			o := op{loc: geom.Pt(rng.Float64()*10000, rng.Float64()*10000)}
			if c%2 == 0 { // even connections issue kNN, odd ones Range
				o.k = 1 + rng.Intn(15)
			} else {
				o.radius = 100 + rng.Float64()*500
			}
			ops[c][i] = o
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for c := range ops {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ws, err := tryOpenSession(srv)
			if err != nil {
				errs <- err
				return
			}
			defer ws.Close()
			for i, o := range ops[c] {
				frame := wire.EncodeRange(wire.RangeQuery{ReqID: uint32(i), Loc: o.loc, Radius: o.radius})
				if o.k > 0 {
					frame = wire.EncodeQuery(wire.Query{ReqID: uint32(i), K: o.k, Loc: o.loc})
				}
				if err := ws.WriteBinary(frame); err != nil {
					errs <- fmt.Errorf("conn %d op %d: write: %v", c, i, err)
					return
				}
				if _, err := ws.ReadMessage(); err != nil {
					errs <- fmt.Errorf("conn %d op %d: read: %v", c, i, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	replay := testModule(nPOIs)
	for _, conn := range ops {
		for _, o := range conn {
			if o.k > 0 {
				replay.KNN(o.loc, o.k, nn.Bounds{})
			} else {
				replay.Range(o.loc, o.radius)
			}
		}
	}

	st := fetchStats(t, srv)
	if st.ProtoErrors != 0 {
		t.Fatalf("protocol_errors = %d, want 0", st.ProtoErrors)
	}
	if st.ServerQueries != replay.Queries() || st.PageAccesses != replay.PageAccesses() {
		t.Fatalf("stats report %d queries / %d pages, sequential replay %d / %d",
			st.ServerQueries, st.PageAccesses, replay.Queries(), replay.PageAccesses())
	}
}

// The query channel requires a registered session.
func TestWSAuthRequired(t *testing.T) {
	srv, _ := testServer(t, 100, Options{})
	for _, path := range []string{"/v1/ws", "/v1/ws?session=deadbeef"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden {
			t.Fatalf("%s: status %d, want 403", path, resp.StatusCode)
		}
	}
}

// Over-limit k gets an error reply, and the connection stays usable.
func TestOverLimitKKeepsConnUsable(t *testing.T) {
	srv, _ := testServer(t, 500, Options{MaxK: 8})
	ws := openSession(t, srv)
	defer ws.Close()

	if err := ws.WriteBinary(wire.EncodeQuery(wire.Query{ReqID: 7, K: 9, Loc: geom.Pt(1, 1)})); err != nil {
		t.Fatal(err)
	}
	data, err := ws.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	msg, err := wire.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != wire.TypeError || msg.Err.ReqID != 7 || msg.Err.Code != wire.ErrCodeBadRequest {
		t.Fatalf("got %+v, want bad-request error for req 7", msg)
	}

	// Connection must survive the rejection.
	if err := ws.WriteBinary(wire.EncodeQuery(wire.Query{ReqID: 8, K: 3, Loc: geom.Pt(1, 1)})); err != nil {
		t.Fatal(err)
	}
	data, err = ws.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	msg, err = wire.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != wire.TypeAnswer || msg.Answer.ReqID != 8 || len(msg.Answer.Cache.Neighbors) != 3 {
		t.Fatalf("follow-up query got %+v", msg)
	}
}

// Peer-channel message types are meaningless client-to-server.
func TestPeerMessagesUnsupported(t *testing.T) {
	srv, _ := testServer(t, 100, Options{})
	ws := openSession(t, srv)
	defer ws.Close()

	if err := ws.WriteBinary(wire.EncodeCacheRequest()); err != nil {
		t.Fatal(err)
	}
	data, err := ws.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	msg, err := wire.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != wire.TypeError || msg.Err.Code != wire.ErrCodeUnsupported {
		t.Fatalf("got %+v, want unsupported error", msg)
	}
}

// Malformed wire bytes inside a valid WebSocket frame tear the connection
// down after an error reply.
func TestGarbagePayloadClosesConn(t *testing.T) {
	srv, _ := testServer(t, 100, Options{})
	ws := openSession(t, srv)
	defer ws.Close()

	if err := ws.WriteBinary([]byte{0xff, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	data, err := ws.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	msg, err := wire.Decode(data)
	if err != nil || msg.Type != wire.TypeError {
		t.Fatalf("got %+v (%v), want error message", msg, err)
	}
	if _, err := ws.ReadMessage(); err == nil {
		t.Fatal("connection still open after protocol garbage")
	}
}

// Many sessions connecting, moving, querying, and disconnecting at once:
// every answer must match the oracle, with zero server-side protocol errors.
// Run under -race this also proves the shared query path is data-race free.
func TestSessionLifecycleConcurrent(t *testing.T) {
	srv, mod := testServer(t, 2000, Options{})

	const workers, queriesPerWorker = 16, 30
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ws, err := tryOpenSession(srv)
			if err != nil {
				errs <- err
				return
			}
			defer ws.Close()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < queriesPerWorker; i++ {
				pos := geom.Pt(rng.Float64()*10000, rng.Float64()*10000)
				if err := ws.WriteBinary(wire.EncodePosition(pos)); err != nil {
					errs <- fmt.Errorf("worker %d: position: %v", w, err)
					return
				}
				q := wire.Query{ReqID: uint32(w<<16 | i), K: 1 + rng.Intn(10), Loc: pos}
				if err := ws.WriteBinary(wire.EncodeQuery(q)); err != nil {
					errs <- fmt.Errorf("worker %d: query: %v", w, err)
					return
				}
				got, err := ws.ReadMessage()
				if err != nil {
					errs <- fmt.Errorf("worker %d: read: %v", w, err)
					return
				}
				neighbors := mod.KNN(q.Loc, q.K, nn.Bounds{})
				msg, err := wire.Decode(got)
				if err != nil {
					errs <- fmt.Errorf("worker %d: decode: %v", w, err)
					return
				}
				if msg.Type != wire.TypeAnswer || msg.Answer.ReqID != q.ReqID {
					errs <- fmt.Errorf("worker %d: wrong reply %+v", w, msg)
					return
				}
				if len(msg.Answer.Cache.Neighbors) != len(neighbors) {
					errs <- fmt.Errorf("worker %d: %d neighbors, want %d",
						w, len(msg.Answer.Cache.Neighbors), len(neighbors))
					return
				}
				for j := range neighbors {
					if msg.Answer.Cache.Neighbors[j].ID != neighbors[j].ID {
						errs <- fmt.Errorf("worker %d: neighbor %d mismatch", w, j)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.ProtoErrors != 0 {
		t.Fatalf("protocol_errors = %d, want 0", st.ProtoErrors)
	}
	if st.Sessions != workers || st.Queries != workers*queriesPerWorker ||
		st.Positions != workers*queriesPerWorker {
		t.Fatalf("stats = %+v, want %d sessions / %d queries", st, workers, workers*queriesPerWorker)
	}
}

// /v1/stats carries the boot costs the daemon measured, so a restart's price
// is visible without a profiler: both fields are always present and
// non-negative, and they report exactly what Options carried in.
func TestStatsReportBootCosts(t *testing.T) {
	for _, tc := range []struct {
		opts        Options
		read, build float64
	}{
		{Options{}, 0, 0},
		{Options{StoreRead: 12500 * time.Microsecond, IndexBuild: 540 * time.Millisecond}, 12.5, 540},
	} {
		srv, _ := testServer(t, 200, tc.opts)
		resp, err := http.Get(srv.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]any
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for key, want := range map[string]float64{"store_read_ms": tc.read, "index_build_ms": tc.build} {
			got, ok := doc[key].(float64)
			if !ok {
				t.Fatalf("/v1/stats lacks a numeric %q: %v", key, doc[key])
			}
			if got < 0 || got != want {
				t.Errorf("%s = %v, want %v", key, got, want)
			}
		}
	}
}

// /v1/stats is an interface: bench/ and the CI smoke gate decode it by JSON
// name. The document is exactly the fields below — the names that existed
// before the memory fields were added, unchanged, plus those five and the two
// store sizes — and the memory fields behave: gauges are positive, the
// cumulative two never go back, the store sizes are what the module reports.
func TestStatsMemoryFields(t *testing.T) {
	srv, _ := testServer(t, 200, Options{})
	fetch := func() map[string]any {
		resp, err := http.Get(srv.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var doc map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		return doc
	}
	first := fetch()
	want := []string{
		"pois", "bounds_min_x", "bounds_min_y", "bounds_max_x", "bounds_max_y",
		"sessions", "active_conns", "positions", "queries", "range_queries", "protocol_errors",
		"store_read_ms", "index_build_ms", "index_bytes", "poi_table_bytes", "index_height", "index_nodes",
		"server_queries", "page_accesses",
		"relay_requests", "relay_shares_forwarded", "relay_rejected", "relay_unknown_replies",
		"relay_timeouts", "peers_in_range_hist",
		"dir_cells_scanned", "dir_candidates_rejected", "dir_patch_ops",
		"goroutines", "heap_inuse_bytes", "stack_inuse_bytes", "total_alloc_bytes", "gc_cycles",
	}
	for _, key := range want {
		if _, ok := first[key]; !ok {
			t.Errorf("/v1/stats lacks %q", key)
		}
	}
	if len(first) != len(want) {
		t.Errorf("/v1/stats has %d fields, want exactly the %d known ones: %v", len(first), len(want), first)
	}
	num := func(doc map[string]any, key string) float64 {
		v, ok := doc[key].(float64)
		if !ok {
			t.Fatalf("%s is not a number: %v", key, doc[key])
		}
		return v
	}
	if got := num(first, "poi_table_bytes"); got != 200*24 {
		t.Errorf("poi_table_bytes = %v, want 200 POIs x 24 B", got)
	}
	// 200 POIs at fan-out 30 pack into seven leaves under one root.
	if h, n := num(first, "index_height"), num(first, "index_nodes"); h != 2 || n != 8 {
		t.Errorf("index_height = %v, index_nodes = %v, want 2 and 8", h, n)
	}
	for _, key := range []string{"index_bytes", "goroutines", "heap_inuse_bytes", "stack_inuse_bytes", "total_alloc_bytes"} {
		if num(first, key) <= 0 {
			t.Errorf("%s = %v, want > 0", key, first[key])
		}
	}

	ws := openSession(t, srv)
	defer ws.Close()
	syncPosition(t, ws, geom.Pt(100, 100))
	runtime.GC()
	second := fetch()
	if a, b := num(first, "total_alloc_bytes"), num(second, "total_alloc_bytes"); b <= a {
		t.Errorf("total_alloc_bytes went %v -> %v across served traffic", a, b)
	}
	if a, b := num(first, "gc_cycles"), num(second, "gc_cycles"); b < a+1 {
		t.Errorf("gc_cycles went %v -> %v across a forced collection", a, b)
	}
}

// Boot path: a store written to disk and served must answer exactly like a
// module built directly from the same POIs — the store preserves insertion
// order and fanout, so the trees are identical.
func TestServeFromStoreMatchesDirectModule(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	bounds := geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(6000, 6000)}
	pois := sim.ClusteredPOIs(3000, bounds, 12, 250, rng)

	path := t.TempDir() + "/pois.senp"
	if err := WriteStore(path, pois, 24, bounds); err != nil {
		t.Fatal(err)
	}
	info, loaded, err := ReadStore(path)
	if err != nil {
		t.Fatal(err)
	}

	direct := sim.NewSnapshotQuerier(sim.NewServerModule(pois, 24))
	fromStore := sim.NewSnapshotQuerier(sim.NewServerModule(loaded, info.Fanout))

	for trial := 0; trial < 50; trial++ {
		q := geom.Pt(rng.Float64()*6000, rng.Float64()*6000)
		k := 1 + rng.Intn(15)
		wantN, wantP := direct.KNN(q, k, nn.Bounds{}, nil)
		gotN, gotP := fromStore.KNN(q, k, nn.Bounds{}, nil)
		if gotP != wantP || len(gotN) != len(wantN) {
			t.Fatalf("trial %d: pages %d/%d, n %d/%d", trial, gotP, wantP, len(gotN), len(wantN))
		}
		for i := range wantN {
			if gotN[i].ID != wantN[i].ID {
				t.Fatalf("trial %d: neighbor %d differs", trial, i)
			}
		}
	}
}
