package serve

import (
	"sync"
	"sync/atomic"
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
// Concurrency: in-flight relays live in one pending map keyed by probe ID,
// guarded by the relay table's mutex; the terminal transition (countdown
// reaching zero, timeout, or requester disconnect) flips done exactly once
// under it, and the PeerShares write to the requester always happens after
// the lock is released — no mutex is ever held across a transport write.
// The in-range sweep reads the session directory (directory.go), scanning
// only the covered grid cells. No path holds the relay lock together with
// the directory's lock or Server.mu.
//
// Shares are forwarded, not re-encoded. A ShareReply's share block (query
// location, neighbor count, neighbors) is byte for byte the block a
// PeerShares message carries for the same cache, and the codec is canonical
// (an accepted message re-encodes to its own bytes), so once
// wire.ShareReplyBlock has validated a reply in place the relay appends the
// block's bytes to the pending relay's aggregate — behind the PeerShares
// header reserved when the relay started — and the delivery is that buffer.
// No share is ever decoded into a cache on the daemon. The per-request
// scratch (target slice, pending state with its waiting map, aggregate and
// timer, probe buffer) is pooled, so a relay exchange allocates nothing in
// steady state (BenchmarkRelayForward and TestRelayExchangeAllocatesNothing
// gate it at zero). Each pooled state keeps one timer, re-armed by every
// registration, and is recycled only when that timer's Stop wins or its
// callback ran the expiry: a stale firing never reaches a later relay.

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
	probeID atomic.Uint32 // the timer's callback reads it without a lock
	// waiting holds the probed sessions that have not replied yet; the
	// relay completes when it drains (or the timer / a disconnect ends it).
	waiting map[*session]bool
	// agg is the PeerShares message under construction: the header's
	// PeerSharesHeaderSize bytes (rewritten at delivery, when the share count
	// is known), then the nShares validated share blocks in arrival order.
	agg          []byte
	nShares      int
	peersInRange int
	timer        *time.Timer // re-armed by each registration; fires relayExpired(probeID)
	done         bool
}

// relayTable is the daemon's in-flight relay state.
type relayTable struct {
	// mu guards nextProbe and pending.
	mu        sync.Mutex
	nextProbe uint32
	pending   map[uint32]*pendingRelay
	// free recycles pendingRelay state. It belongs to the Server because a
	// state's timer callback recycles the state it expires.
	free sync.Pool
}

// relayTargetPool recycles the per-request target snapshot slices.
var relayTargetPool = sync.Pool{
	New: func() any { s := make([]*session, 0, 64); return &s },
}

// relayBufPool recycles relay encode buffers (probe messages and the empty
// zero-peer PeerShares). The writer copies the payload into the connection's
// own buffer before returning, so recycling is safe.
var relayBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 256); return &b },
}

// recycleRelay returns a terminal pendingRelay to the pool. The caller owns
// pr exclusively: it has been removed from the pending map, and its
// timer is stopped or has fired into this very call, so no concurrent reply,
// drop, or timer path can reach it anymore.
func (s *Server) recycleRelay(pr *pendingRelay) {
	clear(pr.waiting)
	pr.reqConn = nil
	pr.nShares = 0
	pr.done = false
	s.relay.free.Put(pr)
}

// settleRelay finishes a relay a countdown or a disconnect ended. A lost Stop
// means the callback is already running: it will find the probe ID gone, and
// the state it reads is left to the collector instead of the pool.
func (s *Server) settleRelay(pr *pendingRelay, deliver bool) {
	stopped := pr.timer.Stop()
	if deliver {
		s.deliverRelay(pr)
	}
	if stopped {
		s.recycleRelay(pr)
	}
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
// registered and every target probed. The returned error is a requester
// write failure (the caller tears the connection down); probe failures to
// other sessions only shrink the countdown.
func (s *Server) startRelay(reqSess *session, req wire.PeerRequest) error {
	radius := req.Radius
	if radius > maxTxRange {
		radius = maxTxRange
	}
	s.stat.relayRequests.Add(1)

	// Snapshot the in-range targets from the spatial directory: sessions
	// (other than the requester) whose last streamed position lies within
	// the radius. Only the covered grid cells are scanned.
	tp := relayTargetPool.Get().(*[]*session)
	targets := s.dir.collectTargets(reqSess, req.Loc, radius, (*tp)[:0])
	s.stat.peersInRange[peersInRangeBucket(len(targets))].Add(1)

	if len(targets) == 0 {
		*tp = targets
		relayTargetPool.Put(tp)
		bp := relayBufPool.Get().(*[]byte)
		buf := wire.AppendPeerShares((*bp)[:0], wire.PeerShares{ReqID: req.ReqID})
		err := reqSess.conn.WriteBinary(buf)
		*bp = buf
		relayBufPool.Put(bp)
		return err
	}

	probeID := s.registerRelay(reqSess.conn, req.ReqID, targets)

	// Probe outside every lock. A dead target's failed write just removes
	// it from the countdown, exactly like a disconnect. The pending relay is
	// not touched here: it may complete — and its state be recycled — while
	// this loop is still probing, so the loop works off the local snapshot
	// and the probe ID alone.
	bp := relayBufPool.Get().(*[]byte)
	probe := wire.AppendPeerProbe((*bp)[:0], probeID)
	for _, peer := range targets {
		if peer.conn.WriteBinary(probe) != nil {
			s.relayDropPeer(probeID, peer)
		}
	}
	*bp = probe
	relayBufPool.Put(bp)
	clear(targets) // drop session references before pooling
	*tp = targets[:0]
	relayTargetPool.Put(tp)
	return nil
}

// registerRelay enters one fan-out over targets into the pending table, its
// timer armed, and returns the probe id that names it from then on. The
// aggregate starts as a PeerShares header with a zero share count (see
// deliverRelay).
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
	probeID := s.relay.nextProbe
	pr.probeID.Store(probeID)
	if s.relay.pending == nil {
		s.relay.pending = make(map[uint32]*pendingRelay)
	}
	s.relay.pending[probeID] = pr
	// Arm the timer inside the registration critical section: any path that
	// finds pr in the pending map — including a reply racing in before the
	// caller proceeds — then finds it armed, so that path's Stop decides
	// whether the state may be recycled.
	if pr.timer == nil {
		pr.timer = time.AfterFunc(s.relayTimeout, func() { s.relayExpired(pr.probeID.Load()) })
	} else {
		pr.timer.Reset(s.relayTimeout)
	}
	s.relay.mu.Unlock()
	return probeID
}

// handleShareReply services one ShareReply frame on the replying peer's
// connection goroutine: validate it in place (wire.ShareReplyBlock runs the
// checks Decode runs) and append its share block's bytes to the aggregate.
// frame is the connection's read buffer, so the block is copied before this
// returns. The error is a malformed frame — the caller's protocol violation.
// Unknown probe IDs — forged, duplicate, or simply late after a timeout —
// are counted and dropped without penalizing the connection: the race
// against the timer is legitimate, so it cannot be a protocol error.
func (s *Server) handleShareReply(from *session, frame []byte) error {
	probeID, n, block, err := wire.ShareReplyBlock(frame)
	if err != nil {
		return err
	}
	s.relay.mu.Lock()
	pr := s.relay.pending[probeID]
	if pr == nil || !pr.waiting[from] {
		s.relay.mu.Unlock()
		s.stat.relayUnknown.Add(1)
		return nil
	}
	delete(pr.waiting, from)
	if n > 0 {
		pr.agg = append(pr.agg, block...)
		pr.nShares++
	}
	fire := len(pr.waiting) == 0 && !pr.done
	if fire {
		pr.done = true
		delete(s.relay.pending, probeID)
	}
	s.relay.mu.Unlock()
	if fire {
		s.settleRelay(pr, true)
	}
	return nil
}

// relayDropPeer removes one probed session from a relay's countdown (failed
// probe write or disconnect), delivering the aggregate if it was the last.
func (s *Server) relayDropPeer(probeID uint32, sess *session) {
	s.relay.mu.Lock()
	pr := s.relay.pending[probeID]
	if pr == nil || !pr.waiting[sess] {
		s.relay.mu.Unlock()
		return
	}
	delete(pr.waiting, sess)
	fire := len(pr.waiting) == 0 && !pr.done
	if fire {
		pr.done = true
		delete(s.relay.pending, probeID)
	}
	s.relay.mu.Unlock()
	if fire {
		s.settleRelay(pr, true)
	}
}

// relayExpired is the timer path: deliver whatever arrived in time, then
// recycle the state, whose timer has just fired. The probe ID names the
// relay, so a callback that lost the race against a countdown or a
// disconnect finds nothing in the map and leaves; that path left the state
// out of the pool, so the ID it read cannot belong to a later relay.
func (s *Server) relayExpired(probeID uint32) {
	s.relay.mu.Lock()
	pr := s.relay.pending[probeID]
	if pr == nil || pr.done {
		s.relay.mu.Unlock()
		return
	}
	pr.done = true
	delete(s.relay.pending, probeID)
	s.relay.mu.Unlock()
	s.stat.relayTimeouts.Add(1)
	s.deliverRelay(pr)
	s.recycleRelay(pr)
}

// deliverRelay sends the aggregated PeerShares to the requester. Callers
// hold no locks and have already made the relay's terminal transition, so
// this runs exactly once per relay and owns pr exclusively.
func (s *Server) deliverRelay(pr *pendingRelay) {
	s.stat.relayShares.Add(int64(pr.nShares))
	// Rewrite the reserved header in place now that the share count is
	// final: appending to agg[:0] lands on the same PeerSharesHeaderSize
	// bytes and leaves the forwarded blocks behind them untouched.
	wire.AppendPeerSharesHeader(pr.agg[:0], pr.reqID, pr.peersInRange, pr.nShares)
	// A failed delivery means the requester's transport died; its serveConn
	// observes and accounts that on its next read.
	_ = pr.reqConn.WriteBinary(pr.agg)
}

// dropConn retires the session of a finished connection: it leaves the
// directory, and every relay it touches is settled — relays waiting on it
// lose one countdown slot (completing if it was the last), and relays it
// requested are cancelled outright, since there is nobody left to deliver
// to. Walks the whole pending table; disconnects are rare enough that the
// sweep is fine.
func (s *Server) dropConn(sess *session) {
	s.dir.remove(sess)

	var fire []*pendingRelay
	var cancelled []*pendingRelay
	s.relay.mu.Lock()
	for id, pr := range s.relay.pending {
		if pr.reqConn == sess.conn {
			pr.done = true
			delete(s.relay.pending, id)
			cancelled = append(cancelled, pr)
			continue
		}
		if pr.waiting[sess] {
			delete(pr.waiting, sess)
			if len(pr.waiting) == 0 && !pr.done {
				pr.done = true
				delete(s.relay.pending, id)
				fire = append(fire, pr)
			}
		}
	}
	s.relay.mu.Unlock()
	for _, pr := range cancelled {
		s.settleRelay(pr, false)
	}
	for _, pr := range fire {
		s.settleRelay(pr, true)
	}
}
