package serve

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/racebuild"
	"repro/internal/wire"
)

// probeIDOffset is where a PeerProbe and a ShareReply carry the probe id:
// right behind the 6-byte message header.
const probeIDOffset = 6

// A whole relay exchange — PeerRequest in, 32 probes out, 32 ShareReply
// frames in, one PeerShares out — allocates nothing anywhere in the process
// once it is warm: not on the daemon (pooled relay state with its timer,
// pooled probe and target scratch, per-connection buffers), not on the peers
// (raw frames: each answers a probe by patching the probe id into one
// pre-encoded reply) and not on the requester, whose DialWS connection keeps
// the 13.25 KB buffer its PeerShares needs.
func TestRelayExchangeAllocatesNothing(t *testing.T) {
	if racebuild.Enabled() {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const peers = 32
	srv, _ := testServer(t, 200, Options{})
	center := geom.Pt(5000, 5000)
	rng := rand.New(rand.NewSource(71))
	var wg sync.WaitGroup
	conns := make([]*WSConn, peers)
	for i := range conns {
		ws := openSession(t, srv)
		conns[i] = ws
		syncPosition(t, ws, geom.Pt(center.X+float64(i), center.Y))
		reply := wire.AppendShareReply(nil, 0, true, sortedCache(16, rng))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				msg, err := ws.ReadMessage()
				if err != nil {
					return
				}
				if typ, _ := wire.PeekType(msg); typ != wire.TypePeerProbe || len(msg) != wire.PeerProbeSize {
					t.Errorf("peer got % x, want a probe", msg)
					return
				}
				copy(reply[probeIDOffset:], msg[probeIDOffset:])
				if ws.WriteBinary(reply) != nil {
					return
				}
			}
		}()
	}
	t.Cleanup(func() {
		for _, ws := range conns {
			ws.Close()
		}
		wg.Wait()
	})

	req := openSession(t, srv)
	defer req.Close()
	frame := wire.AppendPeerRequest(nil, wire.PeerRequest{ReqID: 1, Loc: center, Radius: 100})
	counts := make([]int, peers)
	for i := range counts {
		counts[i] = 16
	}
	wantSize := wire.PeerSharesSize(counts)
	exchange := func() {
		if err := req.WriteBinary(frame); err != nil {
			t.Fatal(err)
		}
		msg, err := req.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		if typ, _ := wire.PeekType(msg); typ != wire.TypePeerShares || len(msg) != wantSize {
			t.Fatalf("requester got a %d-byte message of type %d, want a %d-byte PeerShares", len(msg), typ, wantSize)
		}
	}
	for i := 0; i < 20; i++ {
		exchange()
	}
	if allocs := testing.AllocsPerRun(500, exchange); allocs != 0 {
		t.Fatalf("a warm relay exchange allocates %.3f times, want 0", allocs)
	}
	if st := fetchStats(t, srv); st.RelayTimeouts != 0 || st.RelaySharesFwd != int64(peers)*st.RelayRequests {
		t.Fatalf("stats %+v: every exchange must complete by countdown with %d shares", st, peers)
	}
}

// Completion and expiry collide on recycled relay state: the relay timeout is
// about a peer's (jittered) reply delay, so some relays complete by countdown
// while their timer is firing, and the state the countdown returns to the pool
// is re-registered by the next request, its timer re-armed. The firing that
// lost the race wakes relayExpired on that state, which must find the relay
// gone or a successor whose deadline is still ahead, and end nothing. Every
// peer answers with a share whose one neighbor's ID is the probe id it
// answered, so a delivery that mixed relays would show it. Each request must
// get exactly one PeerShares; a short one only after the timeout; every relay
// ends by the timer or the countdown, never both; and every reply is
// forwarded once or counted unknown.
func TestRelayRecycledTimerRace(t *testing.T) {
	const (
		timeout    = 3 * time.Millisecond
		peers      = 4
		requesters = 4
		rounds     = 130
	)
	s, srv := testServerHandle(t, 200, Options{RelayTimeout: timeout})
	center := geom.Pt(5000, 5000)

	var readers, replies sync.WaitGroup
	peerConns := make([]*WSConn, peers)
	for i := range peerConns {
		ws := openSession(t, srv)
		peerConns[i] = ws
		pos := geom.Pt(center.X+float64(i), center.Y)
		syncPosition(t, ws, pos)
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				data, err := ws.ReadMessage()
				if err != nil {
					return
				}
				msg, err := wire.Decode(data)
				if err != nil || msg.Type != wire.TypePeerProbe {
					t.Errorf("peer got %+v (%v), want a probe", msg, err)
					return
				}
				pc := core.NewPeerCache(pos, []core.POI{{ID: int64(msg.ProbeID), Loc: pos}})
				reply := wire.AppendShareReply(nil, msg.ProbeID, true, pc)
				replies.Add(1)
				time.AfterFunc(time.Duration(rng.Int63n(int64(2*timeout))), func() {
					defer replies.Done()
					// A reply racing the test's teardown meets a closed transport.
					_ = ws.WriteBinary(reply)
				})
			}
		}(int64(81 + i))
	}
	t.Cleanup(func() {
		for _, ws := range peerConns {
			ws.Close()
		}
		readers.Wait()
		replies.Wait()
	})

	var (
		mu                     sync.Mutex
		seen                   = map[int64]bool{} // probe ids that reached a requester
		full, short, forwarded int
		missing                int // replies a timed-out relay never forwarded
	)
	errs := make(chan error, requesters)
	var wg sync.WaitGroup
	for r := 0; r < requesters; r++ {
		ws := openSession(t, srv)
		defer ws.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- func() error {
				for i := uint32(1); i <= rounds; i++ {
					start := time.Now()
					if err := ws.WriteBinary(wire.AppendPeerRequest(nil, wire.PeerRequest{ReqID: i, Loc: center, Radius: 100})); err != nil {
						return err
					}
					data, err := ws.ReadMessage()
					if err != nil {
						return err
					}
					msg, err := wire.Decode(data)
					if err != nil {
						return err
					}
					if msg.Type != wire.TypePeerShares || msg.Shares.ReqID != i || msg.Shares.PeersInRange != peers {
						return fmt.Errorf("request %d answered with %+v", i, msg)
					}
					shares := msg.Shares.Shares
					if len(shares) < peers && time.Since(start) < timeout {
						return fmt.Errorf("request %d: %d of %d shares after %v, before the %v timeout",
							i, len(shares), peers, time.Since(start), timeout)
					}
					mu.Lock()
					if len(shares) == peers {
						full++
					} else {
						short++
						missing += peers - len(shares)
					}
					forwarded += len(shares)
					for _, sh := range shares {
						if id := sh.Neighbors[0].ID; id != shares[0].Neighbors[0].ID {
							mu.Unlock()
							return fmt.Errorf("request %d: one delivery carries replies to probes %d and %d", i, shares[0].Neighbors[0].ID, id)
						}
					}
					if len(shares) > 0 {
						id := shares[0].Neighbors[0].ID
						if seen[id] {
							mu.Unlock()
							return fmt.Errorf("request %d: probe %d's replies delivered twice", i, id)
						}
						seen[id] = true
					}
					mu.Unlock()
				}
				// A duplicate delivery of the last relay would arrive ahead of
				// the answer to a request nobody is in range of.
				time.Sleep(10 * timeout)
				if err := ws.WriteBinary(wire.AppendPeerRequest(nil, wire.PeerRequest{ReqID: 0, Loc: geom.Pt(100, 100), Radius: 1})); err != nil {
					return err
				}
				data, err := ws.ReadMessage()
				if err != nil {
					return err
				}
				if msg, err := wire.Decode(data); err != nil || msg.Type != wire.TypePeerShares || msg.Shares.ReqID != 0 {
					return fmt.Errorf("after the last relay: got %+v (%v), want the empty reply to request 0", msg, err)
				}
				return nil
			}()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	if full == 0 || short == 0 {
		t.Fatalf("fixture too weak: %d countdown and %d timed-out relays, want both", full, short)
	}
	replies.Wait() // every late reply is on its way to the daemon
	waitFor(t, "late replies counted", func() bool {
		return fetchStats(t, srv).RelayUnknownReplies >= int64(missing)
	})
	st := fetchStats(t, srv)
	if st.RelayRequests != requesters*(rounds+1) {
		t.Fatalf("relay_requests = %d, want %d", st.RelayRequests, requesters*(rounds+1))
	}
	if st.RelayTimeouts != int64(short) || int64(full+short) != requesters*rounds {
		t.Fatalf("relay_timeouts = %d and %d countdown completions, want %d timeouts (short deliveries) and %d relays in all",
			st.RelayTimeouts, full, short, requesters*rounds)
	}
	if st.RelaySharesFwd != int64(forwarded) || st.RelayUnknownReplies != int64(missing) {
		t.Fatalf("forwarded %d / unknown %d replies, want %d / %d: every reply forwarded once or counted late",
			st.RelaySharesFwd, st.RelayUnknownReplies, forwarded, missing)
	}
	if n := pendingRelays(s); n != 0 {
		t.Fatalf("%d relays still pending", n)
	}
}

// A failed probe write counts its target down like a disconnect. Here the
// only in-range target's transport is closed before the probe, so the write
// fails every time: the target leaves the countdown, which completes at once
// with an empty PeerShares that still reports the one peer in range — and the
// timer (an hour) never fires.
func TestRelayDropsPeerWhoseProbeWriteFails(t *testing.T) {
	s := newBareServer(geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(1000, 1000)}, 0)
	s.relayTimeout = time.Hour
	srvEnd, cliEnd := net.Pipe()
	cliEnd.Close()
	srvEnd.Close()
	target := &session{conn: &WSConn{conn: srvEnd}}
	s.dir.update(target, geom.Pt(500, 500))

	sink := &sinkConn{}
	if _, err := s.startRelay(&session{conn: &WSConn{conn: sink}}, wire.PeerRequest{ReqID: 3, Loc: geom.Pt(505, 500), Radius: 50}, nil); err != nil {
		t.Fatal(err)
	}
	frames := serverFrames(t, sink.out.Bytes())
	if len(frames) != 1 {
		t.Fatalf("requester got %d frames, want 1", len(frames))
	}
	msg, err := wire.Decode(frames[0])
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != wire.TypePeerShares || msg.Shares.ReqID != 3 || msg.Shares.PeersInRange != 1 || len(msg.Shares.Shares) != 0 {
		t.Fatalf("got %+v, want empty shares from a 1-peer relay", msg)
	}
	if n := s.stat.relayTimeouts.Load(); n != 0 {
		t.Fatalf("relay_timeouts = %d, want 0: the failed probe write settles the relay", n)
	}
	if n := pendingRelays(s); n != 0 {
		t.Fatalf("%d relays still pending", n)
	}
}

// The timer only wakes relayExpired, which ends a relay only while it is in
// the pending table and past its deadline. Driven directly, with the real
// timer an hour away: a wake-up before the deadline changes nothing; a stale
// one on pooled state that a later relay has re-registered leaves that
// successor pending; one past the deadline delivers what arrived, once, as a
// timeout; and a second one finds nothing to end.
func TestRelayExpiresOnlyPastItsDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	s, req, sink, targets := forwardFixture(2, false)
	stateOf := func(probeID uint32) *pendingRelay {
		s.relay.mu.Lock()
		defer s.relay.mu.Unlock()
		return s.relay.pending[probeID]
	}
	reply := func(probeID uint32, from *session) {
		t.Helper()
		if err := s.handleShareReply(from, wire.AppendShareReply(nil, probeID, true, sortedCache(3, rng))); err != nil {
			t.Fatal(err)
		}
	}
	delivered := func() int { return len(serverFrames(t, sink.out.Bytes())) }

	id := s.registerRelay(req, 1, targets)
	pr := stateOf(id)
	s.relayExpired(pr)
	if stateOf(id) != pr || delivered() != 0 || s.stat.relayTimeouts.Load() != 0 {
		t.Fatal("a wake-up before the deadline ended the relay")
	}

	// End relays by countdown until a registration reuses the state its
	// predecessor returned to the pool (the race detector's pool drops some).
	for {
		reply(id, targets[0])
		reply(id, targets[1])
		prev := pr
		id = s.registerRelay(req, 2, targets)
		if pr = stateOf(id); pr == prev {
			break
		}
	}
	done := delivered()
	s.relayExpired(pr)
	if stateOf(id) != pr || delivered() != done || s.stat.relayTimeouts.Load() != 0 {
		t.Fatal("a stale wake-up ended the relay that reused its state")
	}

	reply(id, targets[0])
	s.relay.mu.Lock()
	pr.deadline = time.Now()
	s.relay.mu.Unlock()
	s.relayExpired(pr)
	frames := serverFrames(t, sink.out.Bytes())
	if len(frames) != done+1 || s.stat.relayTimeouts.Load() != 1 || pendingRelays(s) != 0 {
		t.Fatalf("past its deadline: %d deliveries after %d, relay_timeouts = %d, %d pending; want one timeout delivered",
			len(frames), done, s.stat.relayTimeouts.Load(), pendingRelays(s))
	}
	msg, err := wire.Decode(frames[done])
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != wire.TypePeerShares || msg.Shares.ReqID != 2 || msg.Shares.PeersInRange != 2 || len(msg.Shares.Shares) != 1 {
		t.Fatalf("timed-out relay delivered %+v, want request 2's one share of two peers", msg)
	}

	s.relayExpired(pr)
	if delivered() != done+1 || s.stat.relayTimeouts.Load() != 1 {
		t.Fatal("a second wake-up ended the relay again")
	}
}
