package serve

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/nn"
	"repro/internal/wire"
)

func fetchStats(t *testing.T, srv *testHTTP) Stats {
	t.Helper()
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func readDecoded(t *testing.T, ws *WSConn) wire.Message {
	t.Helper()
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

// syncPosition streams a position and proves the server consumed it by
// round-tripping a query behind it — position frames carry no ack of their
// own, and relay tests need the sweep to see the peer.
func syncPosition(t *testing.T, ws *WSConn, pos geom.Point) {
	t.Helper()
	if err := ws.WriteBinary(wire.AppendPosition(nil, pos)); err != nil {
		t.Fatal(err)
	}
	if err := ws.WriteBinary(wire.AppendQuery(nil, wire.Query{ReqID: 0xfff0, K: 1, Loc: pos})); err != nil {
		t.Fatal(err)
	}
	if msg := readDecoded(t, ws); msg.Type != wire.TypeAnswer || msg.Answer.ReqID != 0xfff0 {
		t.Fatalf("position sync got %+v", msg)
	}
}

// A relay with nobody in range must complete immediately and empty — no
// timer, no waiting.
func TestRelayZeroPeersInRange(t *testing.T) {
	srv, _ := testServer(t, 200, Options{})
	ws := openSession(t, srv)
	defer ws.Close()

	if err := ws.WriteBinary(wire.AppendPeerRequest(nil, wire.PeerRequest{
		ReqID: 7, Loc: geom.Pt(100, 100), Radius: 500,
	})); err != nil {
		t.Fatal(err)
	}
	msg := readDecoded(t, ws)
	if msg.Type != wire.TypePeerShares || msg.Shares.ReqID != 7 ||
		msg.Shares.PeersInRange != 0 || len(msg.Shares.Shares) != 0 {
		t.Fatalf("got %+v, want empty peer shares for req 7", msg)
	}
	st := fetchStats(t, srv)
	if st.RelayRequests != 1 || st.RelayTimeouts != 0 {
		t.Fatalf("stats %+v, want 1 relay request, 0 timeouts", st)
	}
	if len(st.PeersInRangeHist) != peersInRangeBuckets || st.PeersInRangeHist[0] != 1 {
		t.Fatalf("peers-in-range hist %v, want bucket 0 == 1", st.PeersInRangeHist)
	}
}

// A probed peer that disconnects between request and reply must complete the
// relay through the countdown, not the timer: with the timeout set to an
// hour, the requester still gets its (empty) aggregate promptly.
func TestRelaySessionChurnCompletesByDisconnect(t *testing.T) {
	srv, _ := testServer(t, 200, Options{RelayTimeout: time.Hour})
	a := openSession(t, srv)
	defer a.Close()
	b := openSession(t, srv)
	syncPosition(t, b, geom.Pt(5000, 5000))

	if err := a.WriteBinary(wire.AppendPeerRequest(nil, wire.PeerRequest{
		ReqID: 9, Loc: geom.Pt(5000, 5010), Radius: 100,
	})); err != nil {
		t.Fatal(err)
	}
	// B receives the probe — so the relay is registered and counting on it —
	// then vanishes without replying.
	if msg := readDecoded(t, b); msg.Type != wire.TypePeerProbe {
		t.Fatalf("peer got %+v, want probe", msg)
	}
	b.Close()

	msg := readDecoded(t, a)
	if msg.Type != wire.TypePeerShares || msg.Shares.ReqID != 9 ||
		msg.Shares.PeersInRange != 1 || len(msg.Shares.Shares) != 0 {
		t.Fatalf("got %+v, want empty shares from a 1-peer relay", msg)
	}
	st := fetchStats(t, srv)
	if st.RelayTimeouts != 0 {
		t.Fatalf("relay rode the timer (%d timeouts), want disconnect countdown", st.RelayTimeouts)
	}
}

// A probed peer that stays connected and silent is what the relay timer is
// for: the requester gets the empty aggregate once it fires, the timeout is
// counted, and the late reply that follows is dropped as unknown.
func TestRelayTimeout(t *testing.T) {
	srv, _ := testServer(t, 200, Options{RelayTimeout: 50 * time.Millisecond})
	a := openSession(t, srv)
	defer a.Close()
	b := openSession(t, srv)
	defer b.Close()
	syncPosition(t, b, geom.Pt(5000, 5000))

	if err := a.WriteBinary(wire.AppendPeerRequest(nil, wire.PeerRequest{
		ReqID: 11, Loc: geom.Pt(5000, 5010), Radius: 100,
	})); err != nil {
		t.Fatal(err)
	}
	probe := readDecoded(t, b)
	if probe.Type != wire.TypePeerProbe {
		t.Fatalf("peer got %+v, want probe", probe)
	}
	if err := a.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	msg := readDecoded(t, a)
	if msg.Type != wire.TypePeerShares || msg.Shares.ReqID != 11 ||
		msg.Shares.PeersInRange != 1 || len(msg.Shares.Shares) != 0 {
		t.Fatalf("got %+v, want empty shares from a 1-peer relay", msg)
	}
	if err := b.WriteBinary(wire.AppendShareReply(nil, probe.ProbeID, false, core.PeerCache{})); err != nil {
		t.Fatal(err)
	}
	syncPosition(t, b, geom.Pt(5000, 5000))
	if st := fetchStats(t, srv); st.RelayTimeouts != 1 || st.RelayUnknownReplies != 1 {
		t.Fatalf("stats %+v, want 1 relay timeout and 1 unknown reply", st)
	}
}

// A ShareReply with a probe ID the server never issued is counted and
// dropped; the connection is not penalized.
func TestRelayForgedReplyIgnored(t *testing.T) {
	srv, _ := testServer(t, 200, Options{})
	ws := openSession(t, srv)
	defer ws.Close()

	if err := ws.WriteBinary(wire.AppendShareReply(nil, 12345, false, core.PeerCache{})); err != nil {
		t.Fatal(err)
	}
	// No reply is owed; the next query must still be served.
	if err := ws.WriteBinary(wire.AppendQuery(nil, wire.Query{ReqID: 8, K: 3, Loc: geom.Pt(1, 1)})); err != nil {
		t.Fatal(err)
	}
	msg := readDecoded(t, ws)
	if msg.Type != wire.TypeAnswer || msg.Answer.ReqID != 8 || len(msg.Answer.Cache.Neighbors) != 3 {
		t.Fatalf("follow-up query got %+v", msg)
	}
	st := fetchStats(t, srv)
	if st.RelayUnknownReplies != 1 {
		t.Fatalf("relay_unknown_replies = %d, want 1", st.RelayUnknownReplies)
	}
	if st.ProtoErrors != 0 {
		t.Fatalf("protocol_errors = %d, want 0 — a forged reply races the timer legitimately", st.ProtoErrors)
	}
}

// TestNetworkedSENNMatchesOracle is the over-the-socket conformance gate:
// a SENNClient resolving through the daemon — relay exchange, shared client
// core, wire server fallback — must produce the same source and the same
// answer, ID for ID and distance for distance, as the reference core.SENN
// run in-process on the same peer caches against the same module. Peer
// sessions are raw connections with fixed primed caches (the true NNs at
// their streamed positions, exactly what a host that just asked the server
// there would hold), so the oracle knows precisely which caches the relay
// will deliver.
func TestNetworkedSENNMatchesOracle(t *testing.T) {
	srv, mod := testServer(t, 4000, Options{})
	const (
		k       = 4
		txRange = 1500.0
		nPeers  = 4
		trials  = 60
	)
	rng := rand.New(rand.NewSource(51))
	center := geom.Pt(5000, 5000)

	var wg sync.WaitGroup
	defer wg.Wait() // after the deferred closes below, so every pump exits

	type fixedPeer struct {
		pos   geom.Point
		cache core.PeerCache
	}
	peers := make([]fixedPeer, nPeers)
	for i := range peers {
		pos := geom.Pt(center.X+rng.NormFloat64()*400, center.Y+rng.NormFloat64()*400)
		csize := 2 + rng.Intn(10)
		nbrs := mod.KNN(pos, csize, nn.Bounds{})
		pc := core.NewPeerCache(pos, append([]core.POI(nil), nbrs...))
		peers[i] = fixedPeer{pos: pos, cache: pc}

		ws := openSession(t, srv)
		defer ws.Close()
		syncPosition(t, ws, pos)
		wg.Add(1)
		go func(ws *WSConn, pc core.PeerCache) {
			defer wg.Done()
			for {
				data, err := ws.ReadMessage()
				if err != nil {
					return
				}
				msg, err := wire.Decode(data)
				if err != nil || msg.Type != wire.TypePeerProbe {
					return
				}
				if ws.WriteBinary(wire.AppendShareReply(nil, msg.ProbeID, true, pc)) != nil {
					return
				}
			}
		}(ws, pc)
	}

	ws := openSession(t, srv)
	defer ws.Close()
	// Capacity == k keeps the client core in the exact configuration the
	// reference implementation runs (no policy-2 top-up past k), so the
	// comparison is answer-for-answer strict.
	cl := NewSENNClient(ws, k, txRange, true)

	srcCounts := map[core.Source]int{}
	for trial := 0; trial < trials; trial++ {
		q := geom.Pt(center.X+rng.NormFloat64()*600, center.Y+rng.NormFloat64()*600)

		// The caches the relay will deliver: the requester's own entry plus
		// every fixed peer whose streamed position lies within the radius —
		// the same inclusive sweep the daemon runs.
		var oracle []core.PeerCache
		if ent, ok := cl.Cache().Entry(); ok {
			oracle = append(oracle, core.PeerCache{
				QueryLoc:  ent.QueryLoc,
				Neighbors: append([]core.POI(nil), ent.Neighbors...),
			})
		}
		for _, p := range peers {
			if q.Dist2(p.pos) <= txRange*txRange {
				oracle = append(oracle, p.cache)
			}
		}
		want := core.SENN(q, k, oracle, mod, core.Options{})

		if err := cl.Move(q); err != nil {
			t.Fatalf("trial %d: move: %v", trial, err)
		}
		ans, src, err := cl.Query(k)
		if err != nil {
			t.Fatalf("trial %d: query: %v", trial, err)
		}
		srcCounts[src]++
		if src != want.Source {
			t.Fatalf("trial %d: source %v, oracle %v", trial, src, want.Source)
		}
		if len(ans) != len(want.Neighbors) {
			t.Fatalf("trial %d (%v): %d answers, oracle %d", trial, src, len(ans), len(want.Neighbors))
		}
		for i, c := range ans {
			if c.ID != want.Neighbors[i].ID || c.Dist != want.Neighbors[i].Dist {
				t.Fatalf("trial %d (%v): answer %d = (%d, %g), oracle (%d, %g)",
					trial, src, i, c.ID, c.Dist, want.Neighbors[i].ID, want.Neighbors[i].Dist)
			}
		}
	}
	// The fixture must exercise both a peer-certified and a server-resolved
	// networked answer, or the oracle proves nothing about the relay path.
	peerSolved := srcCounts[core.SolvedBySinglePeer] + srcCounts[core.SolvedByMultiPeer]
	if peerSolved == 0 || srcCounts[core.SolvedByServer] == 0 {
		t.Fatalf("fixture too weak: sources %v", srcCounts)
	}

	cs := cl.Stats()
	if cs.Queries != trials || cs.PeerSolved != int64(peerSolved) ||
		cs.ServerSolved != int64(srcCounts[core.SolvedByServer]) {
		t.Fatalf("client stats %+v disagree with sources %v", cs, srcCounts)
	}
	if cs.SharesReceived == 0 {
		t.Fatal("no shares delivered through the relay")
	}
	st := fetchStats(t, srv)
	if st.RelayRequests != trials {
		t.Fatalf("relay_requests = %d, want %d", st.RelayRequests, trials)
	}
	if st.RelayTimeouts != 0 || st.ProtoErrors != 0 {
		t.Fatalf("stats %+v: relay rode timeouts or errored", st)
	}
	if st.RelaySharesFwd != cs.SharesReceived {
		t.Fatalf("server forwarded %d shares, client received %d", st.RelaySharesFwd, cs.SharesReceived)
	}
}

// The relay's countdown must be insensitive to reply order: whichever
// in-range peer answers first, the aggregate completes by countdown (never
// the timer) and carries both shares. This is what licenses the directory's
// cell-major target enumeration replacing the linear sweep's map order.
func TestRelayCountdownOrderInsensitive(t *testing.T) {
	pos1, pos2 := geom.Pt(5000, 5000), geom.Pt(5050, 5000)
	cache1 := core.NewPeerCache(pos1, []core.POI{{ID: 101, Loc: geom.Pt(5001, 5000)}})
	cache2 := core.NewPeerCache(pos2, []core.POI{{ID: 202, Loc: geom.Pt(5051, 5000)}})

	for _, firstIsPeer1 := range []bool{true, false} {
		srv, _ := testServer(t, 200, Options{RelayTimeout: time.Hour})
		a := openSession(t, srv)
		b1 := openSession(t, srv)
		b2 := openSession(t, srv)
		syncPosition(t, b1, pos1)
		syncPosition(t, b2, pos2)

		if err := a.WriteBinary(wire.AppendPeerRequest(nil, wire.PeerRequest{
			ReqID: 21, Loc: geom.Pt(5025, 5000), Radius: 200,
		})); err != nil {
			t.Fatal(err)
		}
		m1, m2 := readDecoded(t, b1), readDecoded(t, b2)
		if m1.Type != wire.TypePeerProbe || m2.Type != wire.TypePeerProbe {
			t.Fatalf("probes got %+v / %+v", m1, m2)
		}
		reply := func(ws *WSConn, probeID uint32, pc core.PeerCache) {
			if err := ws.WriteBinary(wire.AppendShareReply(nil, probeID, true, pc)); err != nil {
				t.Fatal(err)
			}
		}
		if firstIsPeer1 {
			reply(b1, m1.ProbeID, cache1)
			reply(b2, m2.ProbeID, cache2)
		} else {
			reply(b2, m2.ProbeID, cache2)
			reply(b1, m1.ProbeID, cache1)
		}

		msg := readDecoded(t, a)
		if msg.Type != wire.TypePeerShares || msg.Shares.ReqID != 21 ||
			msg.Shares.PeersInRange != 2 || len(msg.Shares.Shares) != 2 {
			t.Fatalf("order %v: got %+v, want 2 shares from 2 peers", firstIsPeer1, msg)
		}
		ids := map[int64]bool{}
		for _, sh := range msg.Shares.Shares {
			ids[sh.Neighbors[0].ID] = true
		}
		if !ids[101] || !ids[202] {
			t.Fatalf("order %v: delivered share set %v, want both caches", firstIsPeer1, ids)
		}
		if st := fetchStats(t, srv); st.RelayTimeouts != 0 {
			t.Fatalf("order %v: relay rode the timer", firstIsPeer1)
		}
		a.Close()
		b1.Close()
		b2.Close()
	}
}

// End-to-end churn stress for the directory and the relay's pending table:
// several SENN clients move and query concurrently, so Position-driven
// index patches race relay range scans, probe servicing, and pending-table
// transitions. The nightly -race run is the real referee; here we gate on
// every query completing, the server seeing zero protocol errors, and no
// relay waiting out its timer. A client that has finished its queries keeps
// reading — Range awaits its Answer and answers probes meanwhile, without
// relaying — until every client is done, so no probe goes unanswered.
func TestRelayUnderConcurrentMoves(t *testing.T) {
	srv, _ := testServer(t, 1000, Options{})
	const (
		nClients = 8
		iters    = 25
		txRange  = 2000.0
	)
	var wg sync.WaitGroup
	var done atomic.Int32
	errs := make(chan error, nClients)
	for i := 0; i < nClients; i++ {
		ws := openSession(t, srv)
		defer ws.Close()
		wg.Add(1)
		go func(ws *WSConn, seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			cl := NewSENNClient(ws, 4, txRange, true)
			err := func() error {
				for j := 0; j < iters; j++ {
					p := geom.Pt(4000+rng.Float64()*2000, 4000+rng.Float64()*2000)
					if err := cl.Move(p); err != nil {
						return err
					}
					if _, _, err := cl.Query(1 + rng.Intn(4)); err != nil {
						return err
					}
				}
				return nil
			}()
			done.Add(1)
			for err == nil && done.Load() < nClients {
				_, err = cl.Range(1)
			}
			if err != nil {
				errs <- err
			}
		}(ws, int64(i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := fetchStats(t, srv)
	if st.ProtoErrors != 0 {
		t.Fatalf("protocol_errors = %d, want 0", st.ProtoErrors)
	}
	if st.RelayRequests != nClients*iters {
		t.Fatalf("relay_requests = %d, want %d", st.RelayRequests, nClients*iters)
	}
	if st.RelayTimeouts != 0 {
		t.Fatalf("relay_timeouts = %d, want 0", st.RelayTimeouts)
	}
	if st.DirPatchOps == 0 || st.DirCellsScanned == 0 {
		t.Fatalf("directory counters flat: %+v", st)
	}
}

// The relay never delivers more than a requester may read. Eleven peers in
// range each answer with the largest share the codec accepts (4,096
// neighbors, a 98,324-byte block); ten of those blocks fit in
// DefaultMaxMessage behind the PeerShares header, the eleventh would not. It
// is dropped and counted in relay_rejected, its reply still counts down, and
// the requester reads one 983,258-byte PeerShares of ten shares that still
// reports all eleven peers in range — and goes on to be served.
func TestRelayAggregateCappedAtMessageLimit(t *testing.T) {
	const peers = 11
	srv, _ := testServer(t, 200, Options{RelayTimeout: 10 * time.Second})
	center := geom.Pt(5000, 5000)
	rng := rand.New(rand.NewSource(73))
	var wg sync.WaitGroup
	conns := make([]*WSConn, peers)
	for i := range conns {
		ws := openSession(t, srv)
		conns[i] = ws
		syncPosition(t, ws, geom.Pt(center.X+float64(i), center.Y))
		reply := wire.AppendShareReply(nil, 0, true, sortedCache(wire.MaxShareNeighbors, rng))
		wg.Add(1)
		go func() {
			defer wg.Done()
			msg, err := ws.ReadMessage()
			if err != nil {
				t.Error(err)
				return
			}
			copy(reply[probeIDOffset:], msg[probeIDOffset:])
			if err := ws.WriteBinary(reply); err != nil {
				t.Error(err)
			}
		}()
	}
	defer func() {
		for _, ws := range conns {
			ws.Close()
		}
		wg.Wait()
	}()

	req := openSession(t, srv)
	defer req.Close()
	if err := req.WriteBinary(wire.AppendPeerRequest(nil, wire.PeerRequest{ReqID: 4, Loc: center, Radius: 100})); err != nil {
		t.Fatal(err)
	}
	data, err := req.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	const wantSize = 983_258
	counts := make([]int, peers-1)
	for i := range counts {
		counts[i] = wire.MaxShareNeighbors
	}
	if len(data) != wantSize || wire.PeerSharesSize(counts) != wantSize {
		t.Fatalf("requester read %d bytes, want the %d-byte PeerShares of %d largest shares", len(data), wantSize, peers-1)
	}
	msg, err := wire.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != wire.TypePeerShares || msg.Shares.ReqID != 4 || msg.Shares.PeersInRange != peers || len(msg.Shares.Shares) != peers-1 {
		t.Fatalf("got request %d with %d peers in range and %d shares, want request 4 with %d and %d",
			msg.Shares.ReqID, msg.Shares.PeersInRange, len(msg.Shares.Shares), peers, peers-1)
	}
	syncPosition(t, req, center) // the requester's session is still served
	st := fetchStats(t, srv)
	if st.RelayRejected != 1 || st.RelaySharesFwd != peers-1 || st.RelayTimeouts != 0 || st.ProtoErrors != 0 {
		t.Fatalf("relay_rejected %d, shares forwarded %d, timeouts %d, protocol errors %d; want 1, %d, 0, 0",
			st.RelayRejected, st.RelaySharesFwd, st.RelayTimeouts, st.ProtoErrors, peers-1)
	}
}
