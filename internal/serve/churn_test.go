package serve

import (
	"cmp"
	"math/rand"
	"net/http"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/racebuild"
	"repro/internal/wire"
)

// churnClient is one live connection in the churn test's model: the client
// end and, once it has streamed, the position the daemon must have filed.
type churnClient struct {
	ws       *WSConn
	pos      geom.Point
	streamed bool
}

// filedPositions lists the positions the directory's cells hold, one per
// filed session.
func filedPositions(s *Server) []geom.Point {
	s.dir.mu.Lock()
	defer s.dir.mu.Unlock()
	var out []geom.Point
	for _, cell := range s.dir.cells {
		out = append(out, cell.pos...)
	}
	return out
}

func sortPoints(ps []geom.Point) {
	slices.SortFunc(ps, func(a, b geom.Point) int {
		return cmp.Or(cmp.Compare(a.X, b.X), cmp.Compare(a.Y, b.Y))
	})
}

// checkInvariants holds the daemon to the model after a step: the sessions
// filed in the directory are exactly the live connections that have
// streamed a position, filed under their last one, and no relay is pending.
func checkInvariants(t *testing.T, s *Server, step int, op string, live []*churnClient) {
	t.Helper()
	got := filedPositions(s)
	var want []geom.Point
	for _, c := range live {
		if c.streamed {
			want = append(want, c.pos)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("step %d (%s): the directory files %d sessions, want the %d live connections that streamed a position",
			step, op, len(got), len(want))
	}
	sortPoints(got)
	sortPoints(want)
	if !slices.Equal(got, want) {
		t.Fatalf("step %d (%s): filed positions %v, want %v", step, op, got, want)
	}
	if n := s.stat.activeConns.Load(); n != int64(len(live)) {
		t.Fatalf("step %d (%s): active_conns %d, want %d", step, op, n, len(live))
	}
	if n := pendingRelays(s); n != 0 {
		t.Fatalf("step %d (%s): %d relays pending after the exchange", step, op, n)
	}
}

// A seeded stream of connects, moves, relay requests and orderly and abrupt
// closes against a live daemon: after every step the directory holds exactly
// the live connections that have streamed a position, and once every client
// has gone the pending table, the goroutine count and /v1/stats.sessions are
// back at baseline. A session that outlived its connection would stay filed
// and fail the first check at the first close.
func TestDirectoryHoldsLiveConnsUnderChurn(t *testing.T) {
	ops := 10_000
	if testing.Short() || racebuild.Enabled() {
		ops = 1_000
	}
	const (
		maxLive = 24
		radius  = 1500.0
	)
	s, srv := testServerHandle(t, 500, Options{RelayTimeout: 10 * time.Second})
	base := fetchStats(t, srv)
	http.DefaultClient.CloseIdleConnections()
	baseline := runtime.NumGoroutine()

	rng := rand.New(rand.NewSource(21))
	randPos := func() geom.Point { return geom.Pt(rng.Float64()*10000, rng.Float64()*10000) }
	var live []*churnClient
	// leave takes client i out of the model; the daemon retires its session
	// once the connection goroutine sees the close.
	leave := func(i int, abrupt bool) {
		if abrupt {
			live[i].ws.conn.Close()
		} else {
			live[i].ws.Close()
		}
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
	}
	for step := 0; step < ops; step++ {
		var op string
		switch r := rng.Intn(100); {
		case len(live) == 0 || r < 20 && len(live) < maxLive:
			op = "connect"
			ws := openSession(t, srv)
			if err := ws.SetReadDeadline(time.Now().Add(time.Minute)); err != nil {
				t.Fatal(err)
			}
			live = append(live, &churnClient{ws: ws})
		case r < 55:
			op = "move"
			c := live[rng.Intn(len(live))]
			c.pos, c.streamed = randPos(), true
			syncPosition(t, c.ws, c.pos)
		case r < 75:
			op = "relay"
			req := live[rng.Intn(len(live))]
			loc := randPos()
			var peers []*churnClient
			for _, c := range live {
				if c != req && c.streamed && loc.Dist2(c.pos) <= radius*radius {
					peers = append(peers, c)
				}
			}
			if err := req.ws.WriteBinary(wire.AppendPeerRequest(nil, wire.PeerRequest{ReqID: uint32(step), Loc: loc, Radius: radius})); err != nil {
				t.Fatal(err)
			}
			for _, c := range peers {
				msg := readDecoded(t, c.ws)
				if msg.Type != wire.TypePeerProbe {
					t.Fatalf("step %d: peer got %+v, want a probe", step, msg)
				}
				if err := c.ws.WriteBinary(wire.AppendShareReply(nil, msg.ProbeID, false, core.PeerCache{})); err != nil {
					t.Fatal(err)
				}
			}
			msg := readDecoded(t, req.ws)
			if msg.Type != wire.TypePeerShares || msg.Shares.ReqID != uint32(step) || msg.Shares.PeersInRange != len(peers) {
				t.Fatalf("step %d: requester got %+v, want shares from %d peers in range", step, msg, len(peers))
			}
		case r < 88:
			op = "orderly close"
			leave(rng.Intn(len(live)), false)
		default:
			op = "abrupt close"
			leave(rng.Intn(len(live)), true)
		}
		waitFor(t, "active_conns to match the live connections", func() bool {
			return s.stat.activeConns.Load() == int64(len(live))
		})
		checkInvariants(t, s, step, op, live)
	}

	for len(live) > 0 {
		leave(0, len(live)%2 == 0)
	}
	waitFor(t, "active_conns to drain", func() bool { return s.stat.activeConns.Load() == 0 })
	checkInvariants(t, s, ops, "quiescence", live)
	http.DefaultClient.CloseIdleConnections()
	waitFor(t, "goroutines to return to baseline", func() bool { return runtime.NumGoroutine() <= baseline })
	if st := fetchStats(t, srv); st.ActiveConns != base.ActiveConns {
		t.Fatalf("at quiescence: active_conns %d, baseline %d", st.ActiveConns, base.ActiveConns)
	}
}
