package serve

import (
	"io"
	"math"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/wire"
)

// How a session ended is counted once: a message the daemon refused (a
// length over the cap, bytes that do not decode) is a protocol violation, a
// transport that failed or ended inside a message a reset, and a stream that
// ended between messages neither. A violation's session reads the daemon's
// refusal to the end before it closes, so the refusal is the only thing the
// daemon sees.
func TestSessionEndsAccounted(t *testing.T) {
	// raw sends bytes and the end of the stream, then reads until the daemon
	// closes: whatever it answered, then EOF.
	raw := func(sent []byte) func(*testing.T, *WSConn) {
		return func(t *testing.T, ws *WSConn) {
			mustWrite(t, ws.conn, sent)
			if err := ws.conn.(*net.TCPConn).CloseWrite(); err != nil {
				t.Fatal(err)
			}
			if _, err := io.Copy(io.Discard, ws.conn); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		name               string
		end                func(*testing.T, *WSConn)
		violations, resets int64
	}{
		{"orderly close", func(t *testing.T, ws *WSConn) { ws.Close() }, 0, 0},
		{"transport reset", func(t *testing.T, ws *WSConn) {
			if err := ws.conn.(*net.TCPConn).SetLinger(0); err != nil {
				t.Fatal(err)
			}
			ws.Close()
		}, 0, 1},
		{"mid-message EOF", raw(frame(wire.AppendPosition(nil, geom.Pt(1, 1)))[:10]), 0, 1},
		{"oversized length", raw(frameHeader(math.MaxUint32)), 1, 0},
		{"oversized message", raw(frameHeader(DefaultMaxMessage + 1)), 1, 0},
		{"undecodable message", raw(frame([]byte{0xff, 0x01, 0x02})), 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, srv := testServerHandle(t, 100, Options{})
			ws := openSession(t, srv)
			defer ws.conn.Close()
			syncPosition(t, ws, geom.Pt(500, 500))
			tc.end(t, ws)
			waitFor(t, "the session to end", func() bool { return s.stat.activeConns.Load() == 0 })
			if p, r, w := s.stat.protoErrors.Load(), s.stat.connResets.Load(), s.stat.writeTimeouts.Load(); p != tc.violations || r != tc.resets || w != 0 {
				t.Fatalf("protocol_errors %d, conn_resets %d, write_timeouts %d; want %d, %d, 0", p, r, w, tc.violations, tc.resets)
			}
		})
	}
}

// A message over the length cap is refused with ErrCodeTooLarge before its
// payload is read, and the session is torn down.
func TestOversizeRefusedTooLarge(t *testing.T) {
	_, srv := testServerHandle(t, 100, Options{})
	ws := openSession(t, srv)
	defer ws.Close()
	mustWrite(t, ws.conn, frameHeader(DefaultMaxMessage+1))
	if msg := readDecoded(t, ws); msg.Type != wire.TypeError || msg.Err.Code != wire.ErrCodeTooLarge {
		t.Fatalf("got %+v, want a too-large error", msg)
	}
	if _, err := ws.ReadMessage(); err != ErrConnClosed {
		t.Fatalf("after the refusal read %v, want the session closed", err)
	}
}

// A client that closes with a probe unread resets its connection: the
// daemon counts a reset, not a protocol violation, and the requester's relay
// completes on the countdown.
func TestResetWithProbeUnreadIsNoViolation(t *testing.T) {
	s, srv := testServerHandle(t, 200, Options{RelayTimeout: time.Hour})
	peer, req := openSession(t, srv), openSession(t, srv)
	defer req.Close()
	syncPosition(t, peer, geom.Pt(500, 500))
	syncPosition(t, req, geom.Pt(510, 500))
	if err := req.WriteBinary(wire.AppendPeerRequest(nil, wire.PeerRequest{ReqID: 1, Loc: geom.Pt(510, 500), Radius: 50})); err != nil {
		t.Fatal(err)
	}
	// The probe's first byte proves it arrived; the rest stays unread.
	var first [1]byte
	if err := peer.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := peer.conn.Read(first[:]); err != nil {
		t.Fatal(err)
	}
	peer.conn.Close()
	if msg := readDecoded(t, req); msg.Type != wire.TypePeerShares || msg.Shares.PeersInRange != 1 || len(msg.Shares.Shares) != 0 {
		t.Fatalf("requester got %+v, want an empty PeerShares with 1 peer in range", msg)
	}
	waitFor(t, "the peer's session to end", func() bool { return s.stat.activeConns.Load() == 1 })
	if p, r := s.stat.protoErrors.Load(), s.stat.connResets.Load(); p != 0 || r != 1 {
		t.Fatalf("protocol_errors %d, conn_resets %d; want 0 and 1", p, r)
	}
}

// The daemon's CPU time is on /v1/stats: both fields advance across served
// queries, and reading them allocates nothing.
func TestStatsCPUAdvances(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the CPU fields are read on Linux only")
	}
	var st Stats
	if allocs := testing.AllocsPerRun(100, func() { readCPU(&st) }); allocs != 0 {
		t.Errorf("readCPU allocates %v times per call, want 0", allocs)
	}
	srv, _ := testServer(t, 5000, Options{})
	ws := openSession(t, srv)
	defer ws.Close()
	before := fetchStats(t, srv)
	for i := 0; ; i++ {
		syncPosition(t, ws, geom.Pt(float64(i%10000), 5000))
		if i%500 != 499 {
			continue
		}
		after := fetchStats(t, srv)
		if after.CPUUserNs > before.CPUUserNs && after.CPUSysNs > before.CPUSysNs {
			return
		}
		if i >= 20000 {
			t.Fatalf("cpu_user_ns %d -> %d, cpu_sys_ns %d -> %d across %d served queries, want both to advance",
				before.CPUUserNs, after.CPUUserNs, before.CPUSysNs, after.CPUSysNs, i+1)
		}
	}
}
