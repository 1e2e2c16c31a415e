package serve

import (
	"sync"
	"time"

	"repro/internal/wire"
)

// The daemon-side peer relay gives networked clients the P2P channel the
// paper's hosts have over the air (§4.1): a client that wants peer caches
// sends PeerRequest with its position and transmission radius; the daemon —
// which already tracks every session's last streamed Position — plays the
// broadcast medium. It probes each session within the radius
// (PeerProbe), collects their ShareReply frames, and returns the aggregate
// to the requester as one PeerShares message. The requester then runs the
// exact same verification core (internal/client) a simulated host runs on
// its grid-swept peers.
//
// Every probed peer replies even when its cache is empty — that is what
// lets the relay complete on a countdown instead of always riding the
// timeout. The timeout (Options.RelayTimeout) and the disconnect path cover
// peers that die or stall mid-probe; late replies after either look like
// forged probe IDs and are counted, not forwarded.
//
// One liveness rule: a relay is live exactly while it is in the pending map,
// keyed by probe ID and guarded by the relay table's mutex. Whichever path
// deletes it there — the last countdown, its deadline, or its requester's
// disconnect — owns it from then on and finishes it (finishRelay): delivers
// it unless the requester is gone, then returns the state to the pool. The
// timer is only a wake-up: relayExpired expires a relay that is still live
// and past its deadline, and does nothing otherwise, so a stale firing on
// recycled state cannot end a later relay. The PeerShares write to the
// requester happens after the lock is released — no mutex is ever held
// across a transport write. The in-range sweep reads the session directory
// (directory.go), scanning only the covered grid cells. No path holds the
// relay lock together with the directory's lock or Server.mu.
//
// Shares are forwarded, not re-encoded. A ShareReply's share block (query
// location, neighbor count, neighbors) is byte for byte the block a
// PeerShares message carries for the same cache, and the codec is canonical
// (an accepted message re-encodes to its own bytes), so once
// wire.ShareReplyBlock has validated a reply in place the relay appends the
// block's bytes to the pending relay's aggregate — behind the PeerShares
// header reserved when the relay started — and the delivery is that buffer.
// The aggregate never outgrows DefaultMaxMessage, the most a requester
// reads: a block that would push it past is dropped and counted
// (relay_rejected), and its reply still counts down. No share is ever
// decoded into a cache on the daemon. The pending state (its waiting map,
// aggregate and timer) is pooled, and the target slice and probe buffer are
// the requester's session scratch, so a relay exchange allocates nothing in
// steady state (BenchmarkRelayForward and TestRelayExchangeAllocatesNothing
// gate it at zero).

// defaultRelayTimeout bounds how long a relay waits for probed peers.
const defaultRelayTimeout = 2 * time.Second

// maxTxRange caps the transmission radius a PeerRequest may ask the relay to
// sweep, so one session cannot conscript the whole service area as its
// neighborhood. Larger requested radii are clamped, not refused: the paper's
// hosts cannot grow their antennas either.
const maxTxRange = 10_000.0

// pendingRelay is one in-flight fan-out. Instances are pooled: the waiting
// map, the aggregate buffer and the timer survive recycling, so a steady
// relay load stops allocating once the pool is warm.
type pendingRelay struct {
	reqConn *WSConn
	reqID   uint32
	// probeID and deadline are written at registration and read by
	// relayExpired, both under the relay table's mutex: a stale wake-up reads
	// them even while the state sits in the pool.
	probeID  uint32
	deadline time.Time
	// waiting holds the probed sessions that have not replied yet; the
	// relay completes when it drains (or its deadline / a disconnect ends it).
	waiting map[*session]bool
	// agg is the PeerShares message under construction: the header's
	// PeerSharesHeaderSize bytes (rewritten at delivery, when the share count
	// is known), then the nShares forwarded share blocks in arrival order.
	agg          []byte
	nShares      int
	peersInRange int
	timer        *time.Timer // re-armed by each registration; wakes relayExpired(this state)
}

// relayTable is the daemon's in-flight relay state.
type relayTable struct {
	// mu guards nextProbe, pending, and every state's probeID and deadline.
	mu        sync.Mutex
	nextProbe uint32
	pending   map[uint32]*pendingRelay
	// free recycles pendingRelay state, so that an idle session pins no
	// aggregate.
	free sync.Pool
}

// peersInRangeBucket maps a peer count to its histogram bucket:
// 0, 1, 2-3, 4-7, 8-15, 16-31, 32+.
func peersInRangeBucket(n int) int {
	b := 0
	for n > 0 && b < peersInRangeBuckets-1 {
		b++
		n >>= 1
	}
	return b
}

// startRelay services one PeerRequest on the requester's connection
// goroutine. Zero peers in range short-circuits to an immediate empty
// PeerShares on the requester's own connection; otherwise the relay is
// registered and every target probed. buf is the connection's encode
// buffer, returned grown. The returned error is a requester write failure
// (the caller tears the connection down); probe failures to other sessions
// only shrink the countdown.
func (s *Server) startRelay(reqSess *session, req wire.PeerRequest, buf []byte) ([]byte, error) {
	radius := req.Radius
	if radius > maxTxRange {
		radius = maxTxRange
	}
	s.stat.relayRequests.Add(1)

	// Snapshot the in-range targets from the spatial directory: sessions
	// (other than the requester) whose last streamed position lies within
	// the radius. Only the covered grid cells are scanned.
	targets := s.dir.collectTargets(reqSess, req.Loc, radius, reqSess.targets[:0])
	s.stat.peersInRange[peersInRangeBucket(len(targets))].Add(1)

	if len(targets) == 0 {
		reqSess.targets = targets
		buf = wire.AppendPeerShares(buf[:0], wire.PeerShares{ReqID: req.ReqID})
		return buf, reqSess.conn.WriteBinary(buf)
	}

	probeID := s.registerRelay(reqSess.conn, req.ReqID, targets)

	// Probe outside every lock. A dead target's failed write just removes
	// it from the countdown, exactly like a disconnect. The pending relay is
	// not touched here: it may complete — and its state be recycled — while
	// this loop is still probing, so the loop works off the local snapshot
	// and the probe ID alone.
	buf = wire.AppendPeerProbe(buf[:0], probeID)
	for _, peer := range targets {
		if peer.conn.WriteBinary(buf) != nil {
			s.countDown(probeID, peer, nil)
		}
	}
	clear(targets) // hold no session past its relay
	reqSess.targets = targets[:0]
	return buf, nil
}

// registerRelay enters one fan-out over targets into the pending table, its
// timer armed, and returns the probe id that names it from then on. The
// aggregate starts as a PeerShares header with a zero share count (see
// finishRelay).
func (s *Server) registerRelay(reqConn *WSConn, reqID uint32, targets []*session) uint32 {
	pr, _ := s.relay.free.Get().(*pendingRelay)
	if pr == nil {
		pr = &pendingRelay{waiting: make(map[*session]bool)}
	}
	pr.reqConn = reqConn
	pr.reqID = reqID
	pr.peersInRange = len(targets)
	pr.agg = wire.AppendPeerSharesHeader(pr.agg[:0], reqID, len(targets), 0)
	for _, peer := range targets {
		pr.waiting[peer] = true
	}
	s.relay.mu.Lock()
	s.relay.nextProbe++
	pr.probeID = s.relay.nextProbe
	if s.relay.pending == nil {
		s.relay.pending = make(map[uint32]*pendingRelay)
	}
	s.relay.pending[pr.probeID] = pr
	// The deadline is taken before the timer is armed, so the wake-up it
	// schedules never finds the relay short of it.
	pr.deadline = time.Now().Add(s.relayTimeout)
	if pr.timer == nil {
		pr.timer = time.AfterFunc(s.relayTimeout, func() { s.relayExpired(pr) })
	} else {
		pr.timer.Reset(s.relayTimeout)
	}
	probeID := pr.probeID
	s.relay.mu.Unlock()
	return probeID
}

// handleShareReply services one ShareReply frame on the replying peer's
// connection goroutine: validate it in place (wire.ShareReplyBlock runs the
// checks Decode runs) and count it down, forwarding its share block. frame
// is the connection's read buffer, so the block is copied before this
// returns. The error is a malformed frame — the caller's protocol violation.
// Unknown probe IDs — forged, duplicate, or simply late after a timeout —
// are counted and dropped without penalizing the connection: the race
// against the timer is legitimate, so it cannot be a protocol error.
func (s *Server) handleShareReply(from *session, frame []byte) error {
	probeID, _, block, err := wire.ShareReplyBlock(frame)
	if err != nil {
		return err
	}
	if !s.countDown(probeID, from, block) {
		s.stat.relayUnknown.Add(1)
	}
	return nil
}

// countDown takes peer off relay probeID's countdown — it replied with
// block (a validated share block, nil for an empty cache), its probe write
// failed, or it disconnected — and finishes the relay if peer was the last.
// A block that would push the aggregate past DefaultMaxMessage is dropped
// and counted in relay_rejected. It reports whether the relay was live and
// waiting on peer.
func (s *Server) countDown(probeID uint32, peer *session, block []byte) bool {
	s.relay.mu.Lock()
	pr := s.relay.pending[probeID]
	if pr == nil || !pr.waiting[peer] {
		s.relay.mu.Unlock()
		return false
	}
	delete(pr.waiting, peer)
	if len(pr.agg)+len(block) > DefaultMaxMessage {
		s.stat.relayRejected.Add(1)
	} else if block != nil {
		pr.agg = append(pr.agg, block...)
		pr.nShares++
	}
	last := len(pr.waiting) == 0
	if last {
		delete(s.relay.pending, probeID)
	}
	s.relay.mu.Unlock()
	if last {
		s.finishRelay(pr, true)
	}
	return true
}

// relayExpired is the timer's wake-up for the state pr: if pr is still a
// live relay and its deadline has passed, it ends the relay with whatever
// arrived in time. A firing that lost the race against a countdown or a
// disconnect finds pr gone from the pending map, or re-registered for a
// later relay whose deadline is still ahead, and does nothing.
func (s *Server) relayExpired(pr *pendingRelay) {
	s.relay.mu.Lock()
	if s.relay.pending[pr.probeID] != pr || time.Now().Before(pr.deadline) {
		s.relay.mu.Unlock()
		return
	}
	delete(s.relay.pending, pr.probeID)
	s.relay.mu.Unlock()
	s.stat.relayTimeouts.Add(1)
	s.finishRelay(pr, true)
}

// finishRelay ends a relay its caller has just removed from the pending map,
// and so owns exclusively: it stops the wake-up, sends the aggregated
// PeerShares to the requester if deliver is set and Close has not begun, and
// returns the state to the pool. Callers hold no locks. Once the drain has
// begun nothing is delivered: Close closes connections in no fixed order,
// and the probed peers' disconnects would otherwise finish a relay onto a
// requester that is still open.
func (s *Server) finishRelay(pr *pendingRelay, deliver bool) {
	pr.timer.Stop()
	if deliver && !s.closed.Load() {
		s.stat.relayShares.Add(int64(pr.nShares))
		// Rewrite the reserved header in place now that the share count is
		// final: appending to agg[:0] lands on the same PeerSharesHeaderSize
		// bytes and leaves the forwarded blocks behind them untouched.
		wire.AppendPeerSharesHeader(pr.agg[:0], pr.reqID, pr.peersInRange, pr.nShares)
		// A failed delivery means the requester's transport died; its
		// serveConn observes and accounts that on its next read.
		_ = pr.reqConn.WriteBinary(pr.agg)
	}
	clear(pr.waiting)
	pr.reqConn = nil
	pr.nShares = 0
	s.relay.free.Put(pr)
}

// dropConn retires the session of a finished connection: it leaves the
// directory, the relays it requested are finished undelivered, since there
// is nobody left to deliver to, and every relay waiting on it counts it
// down. Walks the whole pending table; disconnects are rare enough that the
// sweep is fine.
func (s *Server) dropConn(sess *session) {
	s.dir.remove(sess)

	var cancelled []*pendingRelay
	var waited []uint32
	s.relay.mu.Lock()
	for id, pr := range s.relay.pending {
		if pr.reqConn == sess.conn {
			delete(s.relay.pending, id)
			cancelled = append(cancelled, pr)
		} else if pr.waiting[sess] {
			waited = append(waited, id)
		}
	}
	s.relay.mu.Unlock()
	for _, pr := range cancelled {
		s.finishRelay(pr, false)
	}
	for _, id := range waited {
		s.countDown(id, sess, nil)
	}
}
