package serve

import (
	"context"
	"errors"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/wire"
)

// smallSendListener shrinks the kernel send buffer of every connection it
// accepts and watches the daemon's writes on it, so that a client which
// stops reading wedges the daemon's write to it within a few answers, and the
// test can see that it has.
type smallSendListener struct {
	net.Listener
	mu    sync.Mutex
	conns []*watchedConn // in accept order
}

func (l *smallSendListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	if err := c.(*net.TCPConn).SetWriteBuffer(4096); err != nil {
		c.Close()
		return nil, err
	}
	w := &watchedConn{Conn: c}
	l.mu.Lock()
	l.conns = append(l.conns, w)
	l.mu.Unlock()
	return w, nil
}

func (l *smallSendListener) conn(i int) *watchedConn {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.conns[i]
}

// watchedConn reports whether a Write is in progress on the connection.
type watchedConn struct {
	net.Conn
	writing atomic.Bool
}

func (c *watchedConn) Write(p []byte) (int, error) {
	c.writing.Store(true)
	defer c.writing.Store(false)
	return c.Conn.Write(p)
}

// flood sends 64 512-NN queries on ws, whose answers of ~12 KB each fill
// both sockets' buffers when nobody reads them.
func flood(t *testing.T, ws *WSConn, loc geom.Point) {
	t.Helper()
	for i := range 64 {
		if err := ws.WriteBinary(wire.AppendQuery(nil, wire.Query{ReqID: uint32(100 + i), K: 512, Loc: loc})); err != nil {
			t.Fatal(err)
		}
	}
}

// waitWedged waits until a daemon write on c has been blocked for 100 ms.
func waitWedged(t *testing.T, c *watchedConn) {
	t.Helper()
	var since time.Time
	waitFor(t, "the daemon's write to block", func() bool {
		if !c.writing.Load() {
			since = time.Time{}
			return false
		}
		if since.IsZero() {
			since = time.Now()
		}
		return time.Since(since) > 100*time.Millisecond
	})
}

// servedWithin streams pos and a query on ws and fails unless the answer
// arrives within d. Both messages are handled in order on ws's connection
// goroutine, so the answer also proves the position was filed.
func servedWithin(t *testing.T, who string, ws *WSConn, pos geom.Point, d time.Duration) {
	t.Helper()
	if err := ws.WriteBinary(wire.AppendPosition(nil, pos)); err != nil {
		t.Fatal(err)
	}
	if err := ws.WriteBinary(wire.AppendQuery(nil, wire.Query{ReqID: 7, K: 1, Loc: pos})); err != nil {
		t.Fatal(err)
	}
	if err := ws.SetReadDeadline(time.Now().Add(d)); err != nil {
		t.Fatal(err)
	}
	data, err := ws.ReadMessage()
	if err != nil {
		t.Fatalf("%s: Position and Query not served within %v: %v", who, d, err)
	}
	if msg, err := wire.Decode(data); err != nil || msg.Type != wire.TypeAnswer || msg.Answer.ReqID != 7 {
		t.Fatalf("%s: got %+v (%v), want the answer to request 7", who, msg, err)
	}
	if err := ws.SetReadDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
}

// relayedWithin runs one relay exchange from req to its only peer in range
// and fails unless the probe and the PeerShares each arrive within d.
func relayedWithin(t *testing.T, who string, req, peer *WSConn, loc geom.Point, reqID uint32, d time.Duration) {
	t.Helper()
	if err := req.WriteBinary(wire.AppendPeerRequest(nil, wire.PeerRequest{ReqID: reqID, Loc: loc, Radius: 50})); err != nil {
		t.Fatal(err)
	}
	read := func(ws *WSConn, want byte) wire.Message {
		t.Helper()
		if err := ws.SetReadDeadline(time.Now().Add(d)); err != nil {
			t.Fatal(err)
		}
		data, err := ws.ReadMessage()
		if err != nil {
			t.Fatalf("%s: relay message %d not delivered within %v: %v", who, want, d, err)
		}
		msg, err := wire.Decode(data)
		if err != nil || msg.Type != want {
			t.Fatalf("%s: got %+v (%v), want a type-%d message", who, msg, err, want)
		}
		if err := ws.SetReadDeadline(time.Time{}); err != nil {
			t.Fatal(err)
		}
		return msg
	}
	probe := read(peer, wire.TypePeerProbe)
	if err := peer.WriteBinary(wire.AppendShareReply(nil, probe.ProbeID, false, core.PeerCache{})); err != nil {
		t.Fatal(err)
	}
	if msg := read(req, wire.TypePeerShares); msg.Shares.ReqID != reqID || msg.Shares.PeersInRange != 1 {
		t.Fatalf("%s: got %+v, want request %d with 1 peer in range", who, msg.Shares, reqID)
	}
}

// A client that stops reading is torn down by the write deadline, and until
// then it stalls only the goroutines writing to it. Session A floods queries
// and never reads its answers, so the daemon's write to A blocks in
// conn.Write while it holds A's write lock. Around it: B, in A's range, asks
// for peer caches, and its probe write to A waits on that lock; A's own
// relay, registered before the flood, is settled by a reply (D3), a
// disconnect (D1) and the timeout (D2), each of which ends in a write to A.
// Sessions C and E, far from A, must still have a Position and a Query
// served and complete a relay exchange between them, both while A's relay
// is pending and after it timed out: none of the daemon's table locks (the
// directory's, the relay table's, Server.mu) may be held across a write to a
// connection. Then the wedged write misses its deadline (the relay timeout):
// A's connection is closed, B's relay completes on the countdown without
// A's share, and no goroutine is left parked on A.
func TestWedgedPeerIsolation(t *testing.T) {
	const (
		relayTimeout = time.Second
		bound        = 2 * time.Second
	)
	s := NewServer(testModule(2000), Options{RelayTimeout: relayTimeout})
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &smallSendListener{Listener: raw}
	srv := serveOn(t, s, ln, testHandshakeTimeout)

	aPos, dPos, bPos := geom.Pt(1000, 1000), geom.Pt(1000, 1100), geom.Pt(1000, 900)
	cPos, ePos := geom.Pt(9000, 9000), geom.Pt(9000, 9010)
	a := openSession(t, srv) // accepted first: ln.conn(0) is the daemon's side of A
	defer a.Close()
	if err := a.conn.(*net.TCPConn).SetReadBuffer(4096); err != nil {
		t.Fatal(err)
	}
	syncPosition(t, a, aPos)
	var d [3]*WSConn
	for i := range d {
		d[i] = openSession(t, srv)
		defer d[i].Close()
		syncPosition(t, d[i], dPos.Add(geom.Pt(float64(i), 0)))
	}
	b, c, e := openSession(t, srv), openSession(t, srv), openSession(t, srv)
	defer b.Close()
	defer c.Close()
	defer e.Close()
	syncPosition(t, b, bPos)
	syncPosition(t, c, cPos)
	syncPosition(t, e, ePos)
	// Every session's goroutine is parked in its read: the baseline.
	baseline := runtime.NumGoroutine()

	// A's relay probes the three D sessions (and nobody else: B is 200 m
	// from dPos); it stays pending until the last of them settles.
	if err := a.WriteBinary(wire.AppendPeerRequest(nil, wire.PeerRequest{ReqID: 1, Loc: dPos, Radius: 50})); err != nil {
		t.Fatal(err)
	}
	var probes [3]wire.Message
	for i, peer := range d {
		if probes[i] = readDecoded(t, peer); probes[i].Type != wire.TypePeerProbe {
			t.Fatalf("D%d got %+v, want a probe", i+1, probes[i])
		}
	}

	flood(t, a, aPos)
	// Blocked for 100 ms: the write's deadline passes at least that long
	// before B's relay could time out.
	waitWedged(t, ln.conn(0))

	// B scans the directory, finds A and waits to write its probe.
	bSent := time.Now()
	if err := b.WriteBinary(wire.AppendPeerRequest(nil, wire.PeerRequest{ReqID: 2, Loc: bPos, Radius: 150})); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "B's relay to register (its directory scan to end)", func() bool { return pendingRelays(s) == 2 })
	// D3's reply and D1's disconnect reach A's pending relay. TryLock: a
	// relay lock held across a write to A is never released.
	if err := d[2].WriteBinary(wire.AppendShareReply(nil, probes[2].ProbeID, false, core.PeerCache{})); err != nil {
		t.Fatal(err)
	}
	d[0].Close()
	waitFor(t, "D3's reply and D1's disconnect to reach A's relay", func() bool {
		if !s.relay.mu.TryLock() {
			return false
		}
		defer s.relay.mu.Unlock()
		for _, pr := range s.relay.pending {
			if pr.peersInRange == 3 {
				return len(pr.waiting) == 1
			}
		}
		return false
	})

	servedWithin(t, "C while A's relay is pending", c, cPos, bound)
	relayedWithin(t, "C and E while A's relay is pending", c, e, cPos, 3, bound)

	waitFor(t, "A's relay to time out", func() bool { return s.stat.relayTimeouts.Load() > 0 })
	servedWithin(t, "C after A's relay timed out", c, cPos, bound)
	relayedWithin(t, "C and E after A's relay timed out", c, e, cPos, 4, bound)

	// A's write misses its deadline and closes A; B's probe write fails and
	// its relay completes on the countdown, A's share missing.
	if err := b.SetReadDeadline(bSent.Add(relayTimeout + 500*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if msg := readDecoded(t, b); msg.Type != wire.TypePeerShares || msg.Shares.ReqID != 2 ||
		msg.Shares.PeersInRange != 1 || len(msg.Shares.Shares) != 0 {
		t.Fatalf("B got %+v, want PeerShares 2 with A in range and no share", msg)
	}
	waitFor(t, "A's teardown to be counted", func() bool { return s.stat.writeTimeouts.Load() == 1 })
	if p, r := s.stat.protoErrors.Load(), s.stat.relayTimeouts.Load(); p != 0 || r != 1 {
		t.Fatalf("protocol_errors = %d, relay_timeouts = %d; want 0 and 1 (A's relay alone)", p, r)
	}
	if err := a.SetReadDeadline(time.Now().Add(bound)); err != nil {
		t.Fatal(err)
	}
	for {
		if _, err = a.ReadMessage(); err != nil {
			break
		}
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("A's connection still open after its write deadline: %v", err)
	}
	waitFor(t, "goroutines to return to baseline less A's and D1's", func() bool { return runtime.NumGoroutine() <= baseline-2 })
}

// Close does not wait on a session that stopped reading: closing the
// transport unblocks the daemon's write wedged on it, so the drain ends at
// once instead of after that write's deadline (the relay timeout).
func TestCloseDoesNotWaitOnWedgedSession(t *testing.T) {
	const relayTimeout = 10 * time.Second
	s := NewServer(testModule(2000), Options{RelayTimeout: relayTimeout})
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &smallSendListener{Listener: raw}
	srv := serveOn(t, s, ln, testHandshakeTimeout)
	a := openSession(t, srv)
	defer a.Close()
	if err := a.conn.(*net.TCPConn).SetReadBuffer(4096); err != nil {
		t.Fatal(err)
	}
	aPos := geom.Pt(1000, 1000)
	syncPosition(t, a, aPos)
	flood(t, a, aPos)
	waitWedged(t, ln.conn(0))

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), relayTimeout)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if took := time.Since(start); took > relayTimeout/10 {
		t.Fatalf("Close took %v with one wedged session, want well inside the %v write deadline", took, relayTimeout)
	}
	if w := s.stat.writeTimeouts.Load(); w != 0 {
		t.Fatalf("write_timeouts = %d: the drain, not the deadline, ended the session", w)
	}
}
