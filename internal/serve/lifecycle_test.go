package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/racebuild"
	"repro/internal/wire"
)

// dialRaw opens a session's query channel on a bare TCP connection, writing
// the upgrade and the given messages in ONE write — one TCP segment on
// loopback — so the messages reach the server inside its read of the
// request head and have to be kept as the session's first unread bytes. It
// returns a client WSConn over the connection, its replies due within
// sessionReadTimeout.
func dialRaw(srv *testHTTP, msgs ...[]byte) (*WSConn, error) {
	addr := strings.TrimPrefix(srv.URL, "http://")
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	out := appendUpgradeRequest(nil, &url.URL{Scheme: "ws", Host: addr, Path: "/v1/ws"})
	for _, m := range msgs {
		out = append(out, frame(m)...)
	}
	if _, err := conn.Write(out); err != nil {
		conn.Close()
		return nil, err
	}
	ws := &WSConn{conn: conn, client: true, writeTimeout: dialWriteTimeout}
	if err := ws.readSwitch(); err != nil {
		conn.Close()
		return nil, err
	}
	return ws, ws.SetReadDeadline(time.Now().Add(sessionReadTimeout))
}

// A client that does not wait for the 101 before sending — handshake and
// first messages in one segment — is served: the bytes read behind the
// request head are the session's first unread bytes.
func TestFramesPipelinedBehindHandshakeAreServed(t *testing.T) {
	_, srv := testServerHandle(t, 500, Options{})
	pos := geom.Pt(4000, 4000)
	// Enough pipelined messages to overflow the inline read buffer, so some
	// arrive in the head's read and the rest in the session's own reads.
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
			c.Close() // between messages
		} else {
			c.conn.(*net.TCPConn).SetLinger(0) // a reset
			c.conn.Close()
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
	if st := fetchStats(t, srv); st.ActiveConns != 0 || st.RelayTimeouts != 0 {
		t.Fatalf("stats %+v: want no session left and no relay that rode the timer", st)
	}
}

// Close is what a restart owes its clients: every attached connection reads
// what was sent to it and then the end of the stream, between messages —
// not a reset — and when Close returns the connection goroutines are gone,
// a pending relay with them. A connection arriving afterwards is turned
// away the same way, after its 101.
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

	// Every client reads the probes conn 0's relay sent before the drain,
	// if any, and then the end of the stream.
	expectClosed := func(name string, ws *WSConn) {
		t.Helper()
		if err := ws.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		for {
			msg, err := ws.ReadMessage()
			if err == ErrConnClosed {
				return
			}
			if err != nil {
				t.Fatalf("%s: read %v, want the stream to end between messages", name, err)
			}
			if typ, _ := wire.PeekType(msg); typ != wire.TypePeerProbe {
				t.Fatalf("%s: read a type-%d message, want a probe or the end", name, typ)
			}
		}
	}
	for i, ws := range conns {
		expectClosed(fmt.Sprintf("conn %d", i), ws)
	}
	lateWS, err := tryOpenSession(srv)
	if err != nil {
		t.Fatal(err)
	}
	defer lateWS.conn.Close()
	expectClosed("late conn", lateWS)
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
// net/http's buffers stayed under every session, 8.1 KB when net/http read
// the handshake and let go of the connection after the hijack, and 8.2 KB
// since the daemon reads it itself (the write buffer the 101 goes out
// through stays with the session).
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
