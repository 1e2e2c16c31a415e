package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/racebuild"
	"repro/internal/wire"
)

// dialRaw opens a session's WebSocket on a bare TCP connection, writing the
// opening handshake and the given client frames in ONE write — one TCP
// segment on loopback — so the frames reach the server inside net/http's
// read of the request and have to survive the hijack. It returns a client
// WSConn over the connection.
func dialRaw(srv *httptest.Server, frames ...[]byte) (*WSConn, error) {
	addr := strings.TrimPrefix(srv.URL, "http://")
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	const key = "dGhlIHNhbXBsZSBub25jZQ=="
	out := []byte("GET /v1/ws HTTP/1.1\r\n" +
		"Host: " + addr + "\r\n" +
		"Upgrade: websocket\r\n" +
		"Connection: Upgrade\r\n" +
		"Sec-WebSocket-Key: " + key + "\r\n" +
		"Sec-WebSocket-Version: 13\r\n\r\n")
	for _, f := range frames {
		out = append(out, clientFrame(true, opBinary, f)...)
	}
	if _, err := conn.Write(out); err != nil {
		conn.Close()
		return nil, err
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if resp.StatusCode != http.StatusSwitchingProtocols || resp.Header.Get("Sec-WebSocket-Accept") != acceptKey(key) {
		conn.Close()
		return nil, errors.New("handshake refused: " + resp.Status)
	}
	return newWSConn(conn, br, true), nil
}

// A client that does not wait for the 101 before sending — handshake and
// first frames in one segment — is served: the bytes net/http had already
// buffered behind the request are carried over when its reader is dropped.
func TestFramesPipelinedBehindHandshakeAreServed(t *testing.T) {
	_, srv := testServerHandle(t, 500, Options{})
	pos := geom.Pt(4000, 4000)
	// Enough pipelined frames to overflow the inline read buffer, so the
	// leftover takes the heap-copy path as well as the inline one.
	frames := [][]byte{wire.AppendPosition(nil, pos)}
	const queries = 12
	for i := 0; i < queries; i++ {
		frames = append(frames, wire.AppendQuery(nil, wire.Query{ReqID: uint32(100 + i), K: 3, Loc: pos}))
	}
	ws, err := dialRaw(srv, frames...)
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	if err := ws.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < queries; i++ {
		msg := readDecoded(t, ws)
		if msg.Type != wire.TypeAnswer || msg.Answer.ReqID != uint32(100+i) || len(msg.Answer.Cache.Neighbors) != 3 {
			t.Fatalf("pipelined query %d answered with %+v", i, msg)
		}
	}
	if st := fetchStats(t, srv); st.Positions != 1 || st.Queries != queries || st.ProtoErrors != 0 {
		t.Fatalf("stats %+v, want the pipelined position and %d queries served cleanly", st, queries)
	}
}

// pendingRelays counts the in-flight relays.
func pendingRelays(s *Server) int {
	s.relay.mu.Lock()
	defer s.relay.mu.Unlock()
	return len(s.relay.pending)
}

// waitFor polls cond until it holds; the daemon signals teardown to nobody,
// so the observable state is all there is to wait on.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// The connection goroutine, not the HTTP handler, owns teardown: once
// clients disconnect — orderly, abruptly, or with a relay in flight — the
// sessions retire with them, and active_conns, the directory's buckets, the
// pending table and the goroutine count are all back where they started.
func TestDisconnectReturnsToBaseline(t *testing.T) {
	s, srv := testServerHandle(t, 500, Options{RelayTimeout: time.Hour})
	http.DefaultClient.CloseIdleConnections()
	baseline := runtime.NumGoroutine()

	const n = 24
	centre := geom.Pt(5000, 5000)
	conns := make([]*WSConn, n)
	for i := range conns {
		conns[i] = openSession(t, srv)
		syncPosition(t, conns[i], geom.Pt(centre.X+float64(i), centre.Y))
	}
	if st := fetchStats(t, srv); st.ActiveConns != n {
		t.Fatalf("active_conns = %d with %d sessions open", st.ActiveConns, n)
	}
	if got := len(s.dir.collectTargets(nil, centre, 100, nil)); got != n {
		t.Fatalf("directory sweep finds %d live sessions, want %d", got, n)
	}

	// One relay in flight that nobody will answer: conn 0 asks, the other 23
	// are probed and stay silent, so only the disconnects can settle it.
	if err := conns[0].WriteBinary(wire.AppendPeerRequest(nil, wire.PeerRequest{ReqID: 1, Loc: centre, Radius: 100})); err != nil {
		t.Fatal(err)
	}
	if msg := readDecoded(t, conns[1]); msg.Type != wire.TypePeerProbe {
		t.Fatalf("peer got %+v, want probe", msg)
	}
	if got := pendingRelays(s); got != 1 {
		t.Fatalf("%d pending relays, want 1", got)
	}

	for i, c := range conns {
		if i%2 == 0 {
			c.Close() // orderly close handshake
		} else {
			c.conn.Close() // abrupt transport death
		}
	}
	waitFor(t, "active_conns to drain", func() bool { return s.stat.activeConns.Load() == 0 })
	if got := pendingRelays(s); got != 0 {
		t.Fatalf("%d relays still pending after every participant left", got)
	}
	if got := len(filedPositions(s)); got != 0 {
		t.Fatalf("directory buckets still hold %d sessions", got)
	}
	http.DefaultClient.CloseIdleConnections()
	waitFor(t, "goroutines to return to baseline", func() bool { return runtime.NumGoroutine() <= baseline })
	if st := fetchStats(t, srv); st.Sessions != 0 || st.RelayTimeouts != 0 {
		t.Fatalf("stats %+v: want no session left and no relay that rode the timer", st)
	}
}

// Close is what a restart owes its clients: every attached connection reads a
// 1001 (going away) close frame — not a reset, which is what process exit
// after http.Server.Shutdown alone gives a hijacked connection — and when
// Close returns the connection goroutines are gone, a pending relay with
// them. A connection arriving afterwards is turned away the same way.
func TestCloseDrainsAttachedConnections(t *testing.T) {
	s, srv := testServerHandle(t, 500, Options{RelayTimeout: time.Hour})
	http.DefaultClient.CloseIdleConnections()
	baseline := runtime.NumGoroutine()

	const n = 16
	centre := geom.Pt(5000, 5000)
	conns := make([]*WSConn, n)
	for i := range conns {
		conns[i] = openSession(t, srv)
		defer conns[i].conn.Close()
		syncPosition(t, conns[i], geom.Pt(centre.X+float64(i), centre.Y))
	}
	// A relay nobody answers is in flight when the drain starts.
	if err := conns[0].WriteBinary(wire.AppendPeerRequest(nil, wire.PeerRequest{ReqID: 1, Loc: centre, Radius: 100})); err != nil {
		t.Fatal(err)
	}
	if msg := readDecoded(t, conns[1]); msg.Type != wire.TypePeerProbe {
		t.Fatalf("peer got %+v, want probe", msg)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := s.stat.activeConns.Load(); got != 0 || len(s.conns) != 0 || pendingRelays(s) != 0 {
		t.Fatalf("after Close: active_conns %d, %d tracked conns, %d pending relays", got, len(s.conns), pendingRelays(s))
	}
	http.DefaultClient.CloseIdleConnections()
	waitFor(t, "goroutines to return to baseline", func() bool { return runtime.NumGoroutine() <= baseline })

	// The next frame on every client is the close, status 1001, then EOF.
	expectGoingAway := func(name string, ws *WSConn) {
		t.Helper()
		if err := ws.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		for {
			_, op, n, err := ws.readFrame(0)
			if err != nil {
				t.Fatalf("%s: read %v, want a close frame", name, err)
			}
			if op == opBinary {
				continue // the probes conn 0's relay sent before the drain
			}
			if op != opClose || n != 2 || ws.payload[0] != 0x03 || ws.payload[1] != 0xE9 {
				t.Fatalf("%s: frame op %#x payload %x, want close 1001", name, op, ws.payload[:n])
			}
			break
		}
		if _, _, _, err := ws.readFrame(0); !errors.Is(err, io.EOF) {
			t.Fatalf("%s: after the close frame read %v, want EOF", name, err)
		}
	}
	for i, ws := range conns {
		expectGoingAway(fmt.Sprintf("conn %d", i), ws)
	}
	lateWS, err := tryOpenSession(srv)
	if err != nil {
		t.Fatal(err)
	}
	defer lateWS.conn.Close()
	expectGoingAway("late conn", lateWS)
	if st := fetchStats(t, srv); st.ActiveConns != 0 || st.ProtoErrors != 0 {
		t.Fatalf("stats after the drain: %+v", st)
	}
}

// What an idle session costs is the daemon's capacity: the paper's hosts
// query once per ~15 minutes, so nearly every session is parked. Each one
// here is a real upgraded connection that has streamed a position and been
// served a query (so its goroutine's stack has been through the whole
// serving path) and then sits in ReadMessage. The budget covers everything
// the process holds per session — both ends of the socket live in this
// process; this test read 29.5 KB when the HTTP handler's stack and
// net/http's buffers stayed under every session.
func TestIdleSessionFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("opens a thousand sockets")
	}
	if racebuild.Enabled() {
		t.Skip("race-instrumented frames and stacks are not what a deployed daemon holds")
	}
	const (
		sessions = 1000
		budget   = 12 << 10
	)
	_, srv := testServerHandle(t, 2000, Options{})
	inuse := func() uint64 {
		runtime.GC()
		runtime.GC() // a second cycle lets grown stacks shrink again
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse + ms.StackInuse
	}
	// One throwaway session first, so lazily built state (HTTP client pool,
	// directory cell buckets, querier scratch) is in the baseline.
	warm := openSession(t, srv)
	syncPosition(t, warm, geom.Pt(10, 10))
	warm.Close()

	before := inuse()
	conns := make([]*WSConn, 0, sessions)
	defer func() {
		for _, ws := range conns {
			ws.conn.Close()
		}
	}()
	for i := 0; i < sessions; i++ {
		pos := geom.Pt(float64(10*i%10000), float64(7*i%10000))
		ws, err := dialRaw(srv,
			wire.AppendPosition(nil, pos), wire.AppendQuery(nil, wire.Query{ReqID: 1, K: 5, Loc: pos}))
		if errors.Is(err, syscall.EMFILE) {
			t.Skipf("descriptor limit reached after %d sessions: %v", i, err)
		}
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, ws)
		if msg := readDecoded(t, ws); msg.Type != wire.TypeAnswer || len(msg.Answer.Cache.Neighbors) != 5 {
			t.Fatalf("session %d: got %+v", i, msg)
		}
	}
	if st := fetchStats(t, srv); st.ActiveConns != sessions {
		t.Fatalf("active_conns = %d, want %d", st.ActiveConns, sessions)
	}
	per := (int64(inuse()) - int64(before)) / sessions
	t.Logf("%d idle sessions: %d bytes of heap+stack each", sessions, per)
	if per > budget {
		t.Fatalf("an idle session holds %d bytes (heap+stack in use), budget %d", per, budget)
	}
}
