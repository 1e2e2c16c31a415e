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
// broadcast medium. It probes each connected session within the radius
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
// Concurrency: in-flight relays are striped across relayShards pending
// maps keyed by probe ID, so concurrent relays touch different locks; each
// relay's state transitions are ordered by its shard's mutex, the terminal
// transition (countdown reaching zero, timeout, or requester disconnect)
// flips done exactly once, and the PeerShares write to the requester always
// happens after the lock is released — no mutex is ever held across a
// transport write. The in-range sweep reads the sharded session directory
// (directory.go), scanning only the covered grid cells — it never takes the
// global Server.mu, so relay fan-out stays sublinear in the session count
// and free of global contention.
//
// Shares are forwarded, not re-encoded. A ShareReply's share block (query
// location, neighbor count, neighbors) is byte for byte the block a
// PeerShares message carries for the same cache, and the codec is canonical
// (an accepted message re-encodes to its own bytes), so once
// wire.ShareReplyBlock has validated a reply in place the relay appends the
// block's bytes to the pending relay's aggregate — behind the PeerShares
// header reserved when the relay started — and the delivery is that buffer.
// No share is ever decoded into a cache on the daemon. The per-request
// scratch (target slice, pending state with its waiting map and aggregate,
// probe buffer) is pooled, so the reply path allocates nothing in steady
// state (BenchmarkRelayForward gates it at zero); what a relay does allocate
// is its timer.

// defaultRelayTimeout bounds how long a relay waits for probed peers.
const defaultRelayTimeout = 2 * time.Second

// defaultMaxTxRange caps the transmission radius a client may request, so
// one session cannot conscript the whole service area as its neighborhood.
const defaultMaxTxRange = 10_000.0

// relayShards stripes the pending-relay table. Power of two; probe IDs are
// dealt round-robin, so consecutive relays land on distinct locks.
const relayShards = 16

// pendingRelay is one in-flight fan-out. Instances are pooled: the waiting
// map and the aggregate buffer survive recycling, so a steady relay load
// stops allocating once the pool is warm.
type pendingRelay struct {
	reqConn *WSConn
	reqID   uint32
	probeID uint32
	// waiting holds the probed sessions that have not replied yet; the
	// relay completes when it drains (or the timer / a disconnect ends it).
	waiting map[*session]bool
	// agg is the PeerShares message under construction: the header's
	// PeerSharesHeaderSize bytes (rewritten at delivery, when the share count
	// is known), then the nShares validated share blocks in arrival order.
	agg          []byte
	nShares      int
	peersInRange int
	timer        *time.Timer
	done         bool
}

// relayShard is one stripe of the pending table.
type relayShard struct {
	mu      sync.Mutex
	pending map[uint32]*pendingRelay
}

// relayTable is the daemon's in-flight relay state.
type relayTable struct {
	nextProbe atomic.Uint32
	shards    [relayShards]relayShard
}

// shard returns the stripe owning a probe ID.
func (t *relayTable) shard(probeID uint32) *relayShard {
	return &t.shards[probeID&(relayShards-1)]
}

// relayTargetPool recycles the per-request target snapshot slices.
var relayTargetPool = sync.Pool{
	New: func() any { s := make([]relayTarget, 0, 64); return &s },
}

// relayPendingPool recycles pendingRelay state (including the waiting map
// and the aggregate buffer's backing array).
var relayPendingPool = sync.Pool{
	New: func() any { return &pendingRelay{waiting: make(map[*session]bool)} },
}

// relayBufPool recycles relay encode buffers (probe frames and the empty
// zero-peer PeerShares). The batched and immediate writers both copy the
// payload into the connection's own buffer before returning, so recycling is
// safe.
var relayBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 256); return &b },
}

// recycleRelay returns a terminal pendingRelay to the pool. The caller owns
// pr exclusively: it has been removed from its shard's pending map, so no
// concurrent reply, drop, or timer path can find it anymore.
func recycleRelay(pr *pendingRelay) {
	clear(pr.waiting)
	pr.reqConn = nil
	pr.nShares = 0
	pr.timer = nil
	pr.done = false
	relayPendingPool.Put(pr)
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
func (s *Server) startRelay(reqSess *session, ws *WSConn, req wire.PeerRequest) error {
	radius := req.Radius
	if radius > s.maxTxRange {
		radius = s.maxTxRange
	}
	s.stat.relayRequests.Add(1)

	// Snapshot the in-range targets from the spatial directory: connected
	// sessions (other than the requester) whose last streamed position lies
	// within the radius. Only the covered grid cells are scanned.
	tp := relayTargetPool.Get().(*[]relayTarget)
	targets := s.dir.collectTargets(reqSess, req.Loc, radius, (*tp)[:0])
	s.stat.peersInRange[peersInRangeBucket(len(targets))].Add(1)

	if len(targets) == 0 {
		*tp = targets
		relayTargetPool.Put(tp)
		bp := relayBufPool.Get().(*[]byte)
		buf := wire.AppendPeerShares((*bp)[:0], wire.PeerShares{ReqID: req.ReqID})
		err := ws.WriteBinaryBatched(buf)
		*bp = buf
		relayBufPool.Put(bp)
		return err
	}

	probeID := s.registerRelay(ws, req.ReqID, targets)

	// Probe outside every lock. A dead target's failed write just removes
	// it from the countdown, exactly like a disconnect. The pending relay is
	// not touched here: it may complete — and its state be recycled — while
	// this loop is still probing, so the loop works off the local snapshot
	// and the probe ID alone.
	bp := relayBufPool.Get().(*[]byte)
	probe := wire.AppendPeerProbe((*bp)[:0], probeID)
	for _, t := range targets {
		if t.conn.WriteBinary(probe) != nil {
			s.relayDropPeer(probeID, t.sess)
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
func (s *Server) registerRelay(reqConn *WSConn, reqID uint32, targets []relayTarget) uint32 {
	pr := relayPendingPool.Get().(*pendingRelay)
	pr.reqConn = reqConn
	pr.reqID = reqID
	pr.peersInRange = len(targets)
	pr.agg = wire.AppendPeerSharesHeader(pr.agg[:0], reqID, len(targets), 0)
	for _, t := range targets {
		pr.waiting[t.sess] = true
	}
	probeID := s.relay.nextProbe.Add(1)
	pr.probeID = probeID
	sh := s.relay.shard(probeID)
	sh.mu.Lock()
	if sh.pending == nil {
		sh.pending = make(map[uint32]*pendingRelay)
	}
	sh.pending[probeID] = pr
	// Arm the timer inside the registration critical section: any path that
	// finds pr in the pending map — including a reply racing in before the
	// caller proceeds — is then guaranteed to observe a non-nil timer at
	// its terminal transition.
	pr.timer = time.AfterFunc(s.relayTimeout, func() { s.relayExpired(probeID) })
	sh.mu.Unlock()
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
	st := s.relay.shard(probeID)
	st.mu.Lock()
	pr := st.pending[probeID]
	if pr == nil || !pr.waiting[from] {
		st.mu.Unlock()
		s.stat.relayUnknown.Add(1)
		return nil
	}
	delete(pr.waiting, from)
	if n > s.maxAnswer {
		// An oversized share would be refused as an answer too; it does
		// not reach the requester.
		s.stat.relayRejected.Add(1)
	} else if n > 0 {
		pr.agg = append(pr.agg, block...)
		pr.nShares++
	}
	fire := len(pr.waiting) == 0 && !pr.done
	if fire {
		pr.done = true
		delete(st.pending, pr.probeID)
	}
	st.mu.Unlock()
	if fire {
		pr.timer.Stop()
		s.deliverRelay(pr)
		recycleRelay(pr)
	}
	return nil
}

// relayDropPeer removes one probed session from a relay's countdown (failed
// probe write or disconnect), delivering the aggregate if it was the last.
func (s *Server) relayDropPeer(probeID uint32, sess *session) {
	st := s.relay.shard(probeID)
	st.mu.Lock()
	pr := st.pending[probeID]
	if pr == nil || !pr.waiting[sess] {
		st.mu.Unlock()
		return
	}
	delete(pr.waiting, sess)
	fire := len(pr.waiting) == 0 && !pr.done
	if fire {
		pr.done = true
		delete(st.pending, pr.probeID)
	}
	st.mu.Unlock()
	if fire {
		pr.timer.Stop()
		s.deliverRelay(pr)
		recycleRelay(pr)
	}
}

// relayExpired is the timer path: deliver whatever arrived in time. The
// probe ID (not the pendingRelay) names the relay, so a stale timer whose
// relay already completed — and whose state may have been recycled into a
// different relay — finds nothing in the map and leaves.
func (s *Server) relayExpired(probeID uint32) {
	st := s.relay.shard(probeID)
	st.mu.Lock()
	pr := st.pending[probeID]
	if pr == nil || pr.done {
		st.mu.Unlock()
		return
	}
	pr.done = true
	delete(st.pending, probeID)
	st.mu.Unlock()
	s.stat.relayTimeouts.Add(1)
	s.deliverRelay(pr)
	recycleRelay(pr)
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
	// An immediate write, not a batched one: delivery often runs on a peer's
	// connection goroutine, and the requester's own reader is blocked
	// waiting for exactly this message — it cannot flush its own batch.
	//simvet:discard — a failed delivery means the requester's transport died; its serveConn observes and accounts that on its next read
	_ = pr.reqConn.WriteBinary(pr.agg)
}

// dropConn detaches a finished connection from its session and settles
// every relay it touches: relays waiting on this session lose one countdown
// slot (completing if it was the last), and relays this connection
// requested are cancelled outright — there is nobody left to deliver to.
// Walks every shard of the pending table; disconnects are rare enough that
// the sweep is fine.
func (s *Server) dropConn(sess *session, ws *WSConn) {
	sess.mu.Lock()
	if sess.conn == ws {
		sess.conn = nil
	}
	sess.mu.Unlock()

	var fire []*pendingRelay
	var cancelled []*pendingRelay
	for i := range s.relay.shards {
		st := &s.relay.shards[i]
		st.mu.Lock()
		for id, pr := range st.pending {
			if pr.reqConn == ws {
				pr.done = true
				delete(st.pending, id)
				cancelled = append(cancelled, pr)
				continue
			}
			if pr.waiting[sess] {
				delete(pr.waiting, sess)
				if len(pr.waiting) == 0 && !pr.done {
					pr.done = true
					delete(st.pending, id)
					fire = append(fire, pr)
				}
			}
		}
		st.mu.Unlock()
	}
	for _, pr := range cancelled {
		pr.timer.Stop()
		recycleRelay(pr)
	}
	for _, pr := range fire {
		pr.timer.Stop()
		s.deliverRelay(pr)
		recycleRelay(pr)
	}
}
