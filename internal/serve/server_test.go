package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
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

// testHandshakeTimeout is the test servers' handshake deadline.
const testHandshakeTimeout = 5 * time.Second

// testHTTP is a Server serving on a loopback listener: URL is its
// http://host:port.
type testHTTP struct {
	URL      string
	Listener net.Listener
}

// testServerHandle boots a Server over a fresh random POI set, served as the
// daemon serves it. For tests that inspect the Server itself.
func testServerHandle(t *testing.T, nPOIs int, opts Options) (*Server, *testHTTP) {
	t.Helper()
	s := NewServer(testModule(nPOIs), opts)
	return s, serveTest(t, s, testHandshakeTimeout)
}

// serveTest serves s on a fresh loopback listener with the given head
// deadline until the test ends, when the listener is closed and s drained.
func serveTest(t *testing.T, s *Server, headTimeout time.Duration) *testHTTP {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return serveOn(t, s, ln, headTimeout)
}

// serveOn is serveTest on a listener the test made.
func serveOn(t *testing.T, s *Server, ln net.Listener, headTimeout time.Duration) *testHTTP {
	t.Helper()
	served := make(chan error, 1)
	go func() { served <- s.Serve(ln, headTimeout) }()
	t.Cleanup(func() {
		ln.Close()
		if err := <-served; !errors.Is(err, net.ErrClosed) {
			t.Errorf("Serve returned %v, want the closed listener's error", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return &testHTTP{URL: "http://" + ln.Addr().String(), Listener: ln}
}

// testServer is testServerHandle returning the module instead, so oracle
// tests can query it directly.
func testServer(t *testing.T, nPOIs int, opts Options) (*testHTTP, *sim.ServerModule) {
	t.Helper()
	s, srv := testServerHandle(t, nPOIs, opts)
	return srv, s.querier.Module()
}

// openSession dials the query WebSocket, which is the session.
func openSession(t *testing.T, srv *testHTTP) *WSConn {
	t.Helper()
	ws, err := tryOpenSession(srv)
	if err != nil {
		t.Fatal(err)
	}
	return ws
}

func tryOpenSession(srv *testHTTP) (*WSConn, error) {
	return DialWS(wsURL(srv) + "/v1/ws")
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
		if err := ws.WriteBinary(wire.AppendQuery(nil, q)); err != nil {
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
		want := wire.AppendAnswer(nil, wire.Answer{
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
		want := wire.AppendAnswer(nil, wire.Answer{
			ReqID: rq.ReqID,
			Cache: core.PeerCache{QueryLoc: rq.Loc, Neighbors: mod.Range(rq.Loc, rq.Radius)},
		})
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: served range answer differs from in-process oracle", trial)
		}
	}
}

// scriptConn is a transport whose reads deliver a fixed byte stream and
// then io.EOF, and whose every write fails, as on a peer that has reset.
type scriptConn struct {
	net.Conn // nil: serveConn calls only Read and Write
	in       *bytes.Reader
}

func (c *scriptConn) Read(p []byte) (int, error)  { return c.in.Read(p) }
func (c *scriptConn) Write(p []byte) (int, error) { return 0, errors.New("connection reset by peer") }

// A failed transport write ends the session: the daemon serves nothing more
// to a client it can no longer answer. Each script's first message draws an
// answer whose write fails, and a kNN query follows it in the same read, so
// the session would serve that query if it went on after the failure.
func TestFailedWriteEndsSession(t *testing.T) {
	mod := testModule(200)
	query := func(k int) []byte {
		return wire.AppendQuery(nil, wire.Query{ReqID: 1, K: k, Loc: geom.Pt(5000, 5000)})
	}
	// An answer frame just short of the flush threshold, so the next reply
	// queued behind it is the one that flushes.
	short := 1
	for 4+wire.AnswerSize(short+1) < flushThreshold {
		short++
	}
	cases := []struct {
		name    string
		script  [][]byte
		queries int64 // kNN queries served before the failed write
	}{
		{"kNN answer", [][]byte{query(200)}, 1},
		{"range answer", [][]byte{wire.EncodeRange(wire.RangeQuery{ReqID: 1, Loc: geom.Pt(5000, 5000), Radius: 6000})}, 0},
		{"k over the limit", [][]byte{query(600)}, 0},
		{"unsupported message", [][]byte{wire.AppendCacheShare(nil, core.PeerCache{})}, 0},
		{"empty PeerShares", [][]byte{query(short), wire.AppendPeerRequest(nil, wire.PeerRequest{ReqID: 2, Loc: geom.Pt(5000, 5000), Radius: 100})}, 1},
	}
	for _, tc := range cases {
		var in []byte
		for _, m := range append(tc.script, query(1)) {
			in = append(in, clientFrame(true, opBinary, m)...)
		}
		if len(in) > firstReadSize {
			t.Fatalf("%s: script of %d bytes does not arrive in one read", tc.name, len(in))
		}
		s := NewServer(mod, Options{})
		ws := &WSConn{conn: &scriptConn{in: bytes.NewReader(in)}, maxMsg: DefaultMaxMessage, batch: true}
		s.serveConn(&session{conn: ws})
		if got := s.stat.queries.Load(); got != tc.queries {
			t.Errorf("%s: %d kNN queries served, want %d: the session went on after its write failed", tc.name, got, tc.queries)
		}
	}
}

// A Range whose disc holds more POIs than one answer may carry (maxAnswer,
// the codec's 4,096) is refused with ErrCodeTooLarge, and the refusal is
// cheap: the search stopped at the cap instead of collecting, copying and
// sorting the whole store first. The connection stays usable, and an answer
// of exactly maxAnswer POIs is served.
func TestOversizedRangeRefusedAtTheCap(t *testing.T) {
	const nPOIs = 20000
	srv, mod := testServer(t, nPOIs, Options{})
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
	// maxAnswer+1 hits at no fewer than 12 per leaf, the inner nodes above
	// those leaves and one root-to-leaf path; the whole tree is ~950 nodes.
	if st.RangeQueries != 1 || st.PageAccesses > (maxAnswer+1)/12+1+8 {
		t.Fatalf("refused range: %d range queries, %d pages read", st.RangeQueries, st.PageAccesses)
	}

	// The radius whose disc holds exactly maxAnswer POIs is served whole;
	// the next POI out tips it over.
	byDist := mod.Range(centre, diagonal)
	atCap := (centre.Dist(byDist[maxAnswer-1].Loc) + centre.Dist(byDist[maxAnswer].Loc)) / 2
	msg = exchange(wire.RangeQuery{ReqID: 12, Loc: centre, Radius: atCap})
	if msg.Type != wire.TypeAnswer || msg.Answer.ReqID != 12 || !slices.Equal(msg.Answer.Cache.Neighbors, byDist[:maxAnswer]) {
		t.Fatalf("range holding exactly maxAnswer POIs: got type %v with %d neighbors", msg.Type, len(msg.Answer.Cache.Neighbors))
	}
	msg = exchange(wire.RangeQuery{ReqID: 13, Loc: centre, Radius: centre.Dist(byDist[maxAnswer].Loc)})
	if msg.Type != wire.TypeError || msg.Err.Code != wire.ErrCodeTooLarge {
		t.Fatalf("range holding maxAnswer+1 POIs got %+v, want too-large error", msg)
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
					frame = wire.AppendQuery(nil, wire.Query{ReqID: uint32(i), K: o.k, Loc: o.loc})
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

// The upgrade is the session: a bare /v1/ws upgrades and serves, while the
// mint shim left for the benchmark harness answers a token and files
// nothing, so a hundred mints leave no session behind.
func TestUpgradeCreatesSessionMintStoresNothing(t *testing.T) {
	srv, _ := testServer(t, 100, Options{})
	ws := openSession(t, srv)
	syncPosition(t, ws, geom.Pt(50, 50))
	if st := fetchStats(t, srv); st.Sessions != 1 || st.ActiveConns != 1 {
		t.Fatalf("one bare upgrade: sessions %d, active_conns %d; want 1 and 1", st.Sessions, st.ActiveConns)
	}
	ws.Close()
	for i := 0; i < 100; i++ {
		resp, err := http.Post(srv.URL+"/v1/session", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Session string `json:"session"`
		}
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || doc.Session == "" {
			t.Fatalf("mint %d: status %d, token %q, %v", i, resp.StatusCode, doc.Session, err)
		}
	}
	waitFor(t, "sessions to reach 0", func() bool { return fetchStats(t, srv).Sessions == 0 })
}

// Over-limit k gets an error reply, and the connection stays usable.
func TestOverLimitKKeepsConnUsable(t *testing.T) {
	srv, _ := testServer(t, 500, Options{MaxK: 8})
	ws := openSession(t, srv)
	defer ws.Close()

	if err := ws.WriteBinary(wire.AppendQuery(nil, wire.Query{ReqID: 7, K: 9, Loc: geom.Pt(1, 1)})); err != nil {
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
	if err := ws.WriteBinary(wire.AppendQuery(nil, wire.Query{ReqID: 8, K: 3, Loc: geom.Pt(1, 1)})); err != nil {
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

	if err := ws.WriteBinary(wire.AppendCacheShare(nil, core.PeerCache{})); err != nil {
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
				if err := ws.WriteBinary(wire.AppendPosition(nil, pos)); err != nil {
					errs <- fmt.Errorf("worker %d: position: %v", w, err)
					return
				}
				q := wire.Query{ReqID: uint32(w<<16 | i), K: 1 + rng.Intn(10), Loc: pos}
				if err := ws.WriteBinary(wire.AppendQuery(nil, q)); err != nil {
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

	// The workers have closed: their sessions retire with the connections.
	var st Stats
	waitFor(t, "sessions to reach 0", func() bool { st = fetchStats(t, srv); return st.Sessions == 0 })
	if st.ProtoErrors != 0 {
		t.Fatalf("protocol_errors = %d, want 0", st.ProtoErrors)
	}
	if st.Queries != workers*queriesPerWorker || st.Positions != workers*queriesPerWorker {
		t.Fatalf("stats = %+v, want %d queries and positions", st, workers*queriesPerWorker)
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
// before the memory fields were added, unchanged, plus those five, the two
// store sizes and the three resident-memory fields — and the memory fields
// behave: gauges are positive, the cumulative two never go back, the store
// sizes are what the module reports, and on Linux the kernel reports
// resident pages of both kinds.
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
		"rss_anon_bytes", "rss_file_bytes", "peak_rss_bytes",
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
	for _, key := range []string{"rss_anon_bytes", "rss_file_bytes", "peak_rss_bytes"} {
		if runtime.GOOS == "linux" && num(first, key) <= 0 {
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
