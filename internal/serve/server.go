package serve

import (
	"context"
	"encoding/json"
	"maps"
	"net"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/nn"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Options configures a Server.
type Options struct {
	// Bounds is the service area reported to clients (default: the store's
	// or the POI set's bounding box).
	Bounds geom.Rect
	// RelayTimeout bounds how long a peer-cache relay waits for probed
	// sessions before delivering what arrived (default 2s), and every
	// transport write to a connection: a write that misses it closes that
	// connection.
	RelayTimeout time.Duration
	// StoreRead and IndexBuild are what the caller measured reading the POI
	// store and building the R*-tree at boot. They are not knobs: the server
	// only reports them on /v1/stats (store_read_ms, index_build_ms), so an
	// operator can see what a restart costs without a profiler.
	StoreRead  time.Duration
	IndexBuild time.Duration
}

// Server is the network face of the remote spatial database: HTTP for
// statistics and health, length-prefixed internal/wire binary messages for
// the query channel, one session per connection, all on one listener (Serve).
// All query traffic funnels into a sim.SnapshotQuerier over the shared
// read-only R*-tree, so any number of connection goroutines serve
// concurrently.
type Server struct {
	querier      *sim.SnapshotQuerier
	relayTimeout time.Duration
	bounds       geom.Rect
	storeRead    time.Duration
	indexBuild   time.Duration

	mu sync.Mutex
	// conns are the connections with a running runConn, counted by connWG;
	// once closed is set (Close) no further one is tracked or admitted, and
	// no relay is delivered (finishRelay). It is stored and checked against
	// conns under mu; the other readers load it without the lock.
	conns  map[*WSConn]struct{}
	closed atomic.Bool
	connWG sync.WaitGroup

	// dir is the spatial index over session positions the relay's range
	// sweep reads.
	dir *sessionDirectory

	relay relayTable

	stat struct {
		// activeConns counts the live connections, which are the sessions.
		activeConns atomic.Int64
		positions   atomic.Int64
		queries     atomic.Int64
		ranges      atomic.Int64
		// What the daemon refused, the sessions whose transport failed or
		// ended inside a message (accountEnd) and the connections a missed
		// write deadline closed (runConn).
		protoErrors   atomic.Int64
		connResets    atomic.Int64
		writeTimeouts atomic.Int64
		// Relay counters: requests received, shares delivered to
		// requesters, shares dropped at the aggregate's size cap, replies
		// with unknown (forged, duplicate, or post-timeout) probe IDs,
		// relays that rode the timeout, and the peers-in-range histogram
		// (see peersInRangeBucket for the bucket boundaries).
		relayRequests atomic.Int64
		relayShares   atomic.Int64
		relayRejected atomic.Int64
		relayUnknown  atomic.Int64
		relayTimeouts atomic.Int64
		peersInRange  [peersInRangeBuckets]atomic.Int64
	}
}

// maxK caps the k served per query: a Query the codec accepts (k up to
// wire.MaxQueryK) asking for more gets an ErrCodeBadRequest reply, and the
// connection stays usable.
const maxK = 512

// maxAnswer caps the neighbors a single answer may carry: a range query
// whose result exceeds it gets a wire.ErrCodeTooLarge error reply instead of
// a truncated (and therefore uncertifiable) region. It is the codec's cap on
// a relayed share, so wire.ShareReplyBlock already refuses any peer share
// larger than an answer could be.
const maxAnswer = wire.MaxShareNeighbors

// peersInRangeBuckets is the peers-in-range histogram size: 0, 1, 2-3,
// 4-7, 8-15, 16-31, 32+.
const peersInRangeBuckets = 7

// session is one connected client: its connection, which relays probe, and
// its place in the spatial directory, which holds the last reported position
// the peer relay's range scan reads. The admitted handshake creates the
// session and the disconnect retires it. conn is set at creation and never
// changes; the directory fields are guarded by the directory's mutex
// (Server.dir.mu); targets is touched only by the session's own connection
// goroutine. A session has no lock of its own.
type session struct {
	conn *WSConn

	// targets is startRelay's scratch for the sessions one request probes,
	// cleared after probing.
	targets []*session

	// Spatial-directory bookkeeping: whether the session has been filed,
	// and the cell and slot it was filed under.
	dirIn   bool
	dirCell int32
	dirSlot int32
}

// NewServer wraps mod with the network service.
func NewServer(mod *sim.ServerModule, opts Options) *Server {
	if opts.RelayTimeout <= 0 {
		opts.RelayTimeout = defaultRelayTimeout
	}
	bounds := opts.Bounds
	if bounds.Max.X <= bounds.Min.X || bounds.Max.Y <= bounds.Min.Y {
		// The packed tree's root MBR is the data set's; an empty tree has
		// none and serves the zero rectangle.
		if bounds = mod.Tree().Bounds(); bounds.IsEmpty() {
			bounds = geom.Rect{}
		}
	}
	s := &Server{
		querier:      sim.NewSnapshotQuerier(mod),
		relayTimeout: opts.RelayTimeout,
		bounds:       bounds,
		storeRead:    opts.StoreRead,
		indexBuild:   opts.IndexBuild,
		conns:        make(map[*WSConn]struct{}),
		dir:          newSessionDirectory(bounds, 0),
	}
	return s
}

// sessionShimBody is POST /v1/session's answer: the retired session mint
// answers a constant token and stores nothing, since a session is its
// connection, created by the handshake. Its only caller is the benchmark
// harness (bench/daemon.go), which still mints before it dials; ROADMAP item
// 1-III(j) moves that caller to a plain dial and deletes the route.
const sessionShimBody = "{\n  \"session\": \"0\"\n}\n"

// Close drains the server for a restart: it admits no further session,
// closes every connection, session or HTTP alike, and waits for the
// connection goroutines to finish, or for ctx. Closing unblocks a write
// wedged on a peer that stopped reading, so no connection holds the drain.
// A connection accepted later gets one HTTP answer with Connection: close,
// or a 101 and then the close. A relay that ends after Close began is not
// delivered. Close leaves the listener to its owner: close it first, and
// Serve returns.
func (s *Server) Close(ctx context.Context) error {
	s.mu.Lock()
	s.closed.Store(true)
	conns := maps.Clone(s.conns)
	s.mu.Unlock()
	for ws := range conns {
		// The drain needs the connection gone, not word of how it went.
		_ = ws.Close()
	}
	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// runConn owns one accepted connection from its first request head to its
// teardown: it answers HTTP requests (admit) until one opens the query
// channel, then serves that session on the same goroutine until the
// transport ends (peer close, refused message, write failure, Close). A
// connection admitted after Close began is closed after its 101. Every
// write to the connection is bounded by the relay timeout.
func (s *Server) runConn(conn net.Conn, headTimeout time.Duration) {
	ws := &WSConn{conn: conn, writeTimeout: s.relayTimeout}
	// Counted once the connection is closed, after which no write to it can
	// reach its deadline.
	defer func() {
		if ws.writeTimedOut.Load() {
			s.stat.writeTimeouts.Add(1)
		}
	}()
	s.mu.Lock()
	tracked := !s.closed.Load()
	if tracked {
		s.conns[ws] = struct{}{}
		s.connWG.Add(1)
	}
	s.mu.Unlock()
	if tracked {
		defer s.connWG.Done()
		defer func() {
			s.mu.Lock()
			delete(s.conns, ws)
			s.mu.Unlock()
		}()
	}
	if !s.admit(ws, headTimeout) {
		return
	}
	if !tracked {
		abortConn(conn)
		return
	}
	s.stat.activeConns.Add(1)
	sess := &session{conn: ws}
	defer s.stat.activeConns.Add(-1)
	defer s.dropConn(sess)
	defer ws.Close()
	s.accountEnd(ws, s.serveConn(sess))
}

// accountEnd counts what ended a session, err being serveConn's: a
// transport that failed, or ended inside a message, is a reset. A stream
// that ended between messages, a refusal serveConn already counted (nil), a
// transport the write deadline closed (runConn counts it) and the drain are
// not.
func (s *Server) accountEnd(ws *WSConn, err error) {
	if err != nil && err != ErrConnClosed && !ws.writeTimedOut.Load() && !s.closed.Load() {
		s.stat.connResets.Add(1)
	}
}

// serveConn runs one connection's read-dispatch-answer loop until a read or
// a write fails, and returns that error; nil when it refused a message,
// which it has counted. The scratch slice and the encode buffer keep
// steady-state kNN and range serving allocation-free: results land in
// scratch, answers are encoded append-style into encBuf and handed to the
// writer, which copies them into the connection's write buffer.
func (s *Server) serveConn(sess *session) error {
	ws := sess.conn
	var scratch []core.POI
	var encBuf []byte
	for {
		data, err := ws.ReadMessage()
		if err == ErrTooLarge {
			s.rejectFrame(ws, encBuf[:0], wire.ErrCodeTooLarge)
			return nil
		}
		if err != nil {
			return err
		}
		typ, err := wire.PeekType(data)
		if err != nil {
			s.rejectFrame(ws, encBuf[:0], wire.ErrCodeBadRequest)
			return nil
		}
		switch typ {
		case wire.TypeShareReply:
			// Forwarded as bytes, never decoded; like every decoded message
			// it does not alias data past this iteration (the next
			// ReadMessage overwrites it).
			if s.handleShareReply(sess, data) != nil {
				s.rejectFrame(ws, encBuf[:0], wire.ErrCodeBadRequest)
				return nil
			}
			continue
		case wire.TypeAnswer, wire.TypeError, wire.TypePeerProbe, wire.TypePeerShares:
			// Server-to-client messages mean nothing client-to-server: they
			// are refused unread, and the session goes on.
			s.stat.protoErrors.Add(1)
			encBuf = wire.AppendError(encBuf[:0], wire.ErrorMsg{Code: wire.ErrCodeUnsupported})
			if err := ws.WriteBinary(encBuf); err != nil {
				return err
			}
			continue
		}
		// What is left is a client request to decode, or an unknown type
		// Decode refuses.
		msg, err := wire.Decode(data)
		if err != nil {
			s.rejectFrame(ws, encBuf[:0], wire.ErrCodeBadRequest)
			return nil
		}
		switch msg.Type {
		case wire.TypePosition:
			s.dir.update(sess, msg.Pos)
			s.stat.positions.Add(1)
		case wire.TypeQuery:
			q := msg.Query
			if q.K > maxK {
				s.stat.protoErrors.Add(1)
				encBuf = wire.AppendError(encBuf[:0], wire.ErrorMsg{ReqID: q.ReqID, Code: wire.ErrCodeBadRequest})
				if err := ws.WriteBinary(encBuf); err != nil {
					return err
				}
				continue
			}
			b := nn.Bounds{Lower: q.Lower, HasLower: q.HasLower, Upper: q.Upper, HasUpper: q.HasUpper}
			var pages int64
			scratch, pages = s.querier.KNN(q.Loc, q.K, b, scratch)
			s.stat.queries.Add(1)
			ans := wire.Answer{
				ReqID: q.ReqID,
				Pages: pages,
				Cache: core.PeerCache{QueryLoc: q.Loc, Neighbors: scratch},
			}
			encBuf = wire.AppendAnswer(encBuf[:0], ans)
			if err := ws.WriteBinary(encBuf); err != nil {
				return err
			}
		case wire.TypeRange:
			rq := msg.Range
			var ok bool
			scratch, ok = s.querier.RangeInto(rq.Loc, rq.Radius, maxAnswer, scratch)
			s.stat.ranges.Add(1)
			if !ok {
				// A truncated range answer would claim a certain region it
				// does not cover; refuse instead. The search itself stopped
				// at the cap, so a whole-map radius costs one bounded scan.
				encBuf = wire.AppendError(encBuf[:0], wire.ErrorMsg{ReqID: rq.ReqID, Code: wire.ErrCodeTooLarge})
				if err := ws.WriteBinary(encBuf); err != nil {
					return err
				}
				continue
			}
			ans := wire.Answer{
				ReqID: rq.ReqID,
				Cache: core.PeerCache{QueryLoc: rq.Loc, Neighbors: scratch},
			}
			encBuf = wire.AppendAnswer(encBuf[:0], ans)
			if err := ws.WriteBinary(encBuf); err != nil {
				return err
			}
		case wire.TypePeerRequest:
			if encBuf, err = s.startRelay(sess, msg.PeerReq, encBuf); err != nil {
				return err
			}
		}
	}
}

// rejectFrame accounts and reports a message the daemon refuses — one over
// the length cap (ErrCodeTooLarge) or one that is not a valid request
// (ErrCodeBadRequest) — encoding the report into buf; the caller then tears
// the connection down.
func (s *Server) rejectFrame(ws *WSConn, buf []byte, code uint32) {
	s.stat.protoErrors.Add(1)
	// Best effort: the connection is torn down whether or not the report
	// reaches the client.
	_ = ws.WriteBinary(wire.AppendError(buf, wire.ErrorMsg{Code: code}))
}

// Stats is the /v1/stats document. ActiveConns is the live connection
// count, and so the session count: a session is its connection.
type Stats struct {
	POIs         int     `json:"pois"`
	BoundsMinX   float64 `json:"bounds_min_x"`
	BoundsMinY   float64 `json:"bounds_min_y"`
	BoundsMaxX   float64 `json:"bounds_max_x"`
	BoundsMaxY   float64 `json:"bounds_max_y"`
	ActiveConns  int64   `json:"active_conns"`
	Positions    int64   `json:"positions"`
	Queries      int64   `json:"queries"`
	RangeQueries int64   `json:"range_queries"`
	// ProtoErrors counts what the daemon refused: a length over the cap, a
	// message the decoder rejects, an unsupported type, a k over the limit;
	// ConnResets sessions whose transport failed (a reset) or ended inside a
	// message; WriteTimeouts connections a write missed its deadline on
	// (Options.RelayTimeout), which closed them.
	ProtoErrors   int64 `json:"protocol_errors"`
	ConnResets    int64 `json:"conn_resets"`
	WriteTimeouts int64 `json:"write_timeouts"`
	// StoreReadMs and IndexBuildMs are the boot costs the daemon measured
	// (Options.StoreRead, Options.IndexBuild), set once and never updated;
	// zero when the embedder reported none.
	StoreReadMs  float64 `json:"store_read_ms"`
	IndexBuildMs float64 `json:"index_build_ms"`
	// IndexBytes is the R*-tree's node table and slot arenas, POITableBytes
	// the POI table they index: together the store's resident cost, fixed at
	// boot. IndexBytes / POIs is the index overhead per POI (≤ 24 B for the
	// packed tree at the paper's fan-out). IndexHeight is the pages a point
	// lookup reads, IndexNodes the pages there are; with IndexBytes they
	// give the leaf count, and POIs over leaf slots is the fill.
	IndexBytes    int64 `json:"index_bytes"`
	POITableBytes int64 `json:"poi_table_bytes"`
	IndexHeight   int   `json:"index_height"`
	IndexNodes    int   `json:"index_nodes"`
	// ServerQueries and PageAccesses are the wrapped module's own counters
	// — the PAR metric, aggregated across every connection.
	ServerQueries int64 `json:"server_queries"`
	PageAccesses  int64 `json:"page_accesses"`
	// Relay counters: see the relay documentation in relay.go. The
	// histogram buckets are peers-in-range counts 0, 1, 2-3, 4-7, 8-15,
	// 16-31, 32+. RelayRejected counts shares the relay dropped because
	// forwarding them would have grown the requester's PeerShares past
	// DefaultMaxMessage; their replies still counted down.
	RelayRequests       int64   `json:"relay_requests"`
	RelaySharesFwd      int64   `json:"relay_shares_forwarded"`
	RelayRejected       int64   `json:"relay_rejected"`
	RelayUnknownReplies int64   `json:"relay_unknown_replies"`
	RelayTimeouts       int64   `json:"relay_timeouts"`
	PeersInRangeHist    []int64 `json:"peers_in_range_hist"`
	// Session-directory counters: grid cells visited by relay range scans,
	// candidates rejected by the exact distance filter, and incremental
	// index patch ops (cell moves, first insertions included).
	DirCellsScanned int64 `json:"dir_cells_scanned"`
	DirCandRejected int64 `json:"dir_candidates_rejected"`
	DirPatchOps     int64 `json:"dir_patch_ops"`
	// Process memory, read through runtime/metrics (no stop-the-world):
	// (heap_inuse_bytes + stack_inuse_bytes) / active_conns is what a session
	// costs, and the growth of total_alloc_bytes and gc_cycles over a stretch
	// of traffic is what an exchange allocates. The last two are cumulative.
	Goroutines      int64 `json:"goroutines"`
	HeapInuseBytes  int64 `json:"heap_inuse_bytes"`
	StackInuseBytes int64 `json:"stack_inuse_bytes"`
	TotalAllocBytes int64 `json:"total_alloc_bytes"`
	GCCycles        int64 `json:"gc_cycles"`
	// What the kernel holds resident for the process (Linux's
	// /proc/self/status; 0 elsewhere): anonymous pages (heap, stacks, the
	// runtime's own), file-backed pages (the executable and its shared
	// libraries, mapped in as they are touched) and the high-water mark of
	// their sum (VmHWM, what the benchmark reads as peak_rss_mb).
	RSSAnonBytes int64 `json:"rss_anon_bytes"`
	RSSFileBytes int64 `json:"rss_file_bytes"`
	PeakRSSBytes int64 `json:"peak_rss_bytes"`
	// The CPU time the process has used in user and kernel mode
	// (getrusage(RUSAGE_SELF) on Linux; 0 elsewhere), cumulative: their
	// growth over a stretch of traffic is what serving it cost.
	CPUUserNs int64 `json:"cpu_user_ns"`
	CPUSysNs  int64 `json:"cpu_sys_ns"`
}

// runtimeMetrics are the runtime/metrics samples behind the Stats memory
// fields, in the order readRuntime consumes them. Heap in use is spans
// holding objects: live and not-yet-swept objects plus the free slots
// between them, what runtime.MemStats calls HeapInuse.
var runtimeMetrics = [...]string{
	"/sched/goroutines:goroutines",
	"/memory/classes/heap/objects:bytes",
	"/memory/classes/heap/unused:bytes",
	"/memory/classes/heap/stacks:bytes",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
}

// readRuntime fills the memory fields of st.
func readRuntime(st *Stats) {
	var samples [len(runtimeMetrics)]metrics.Sample
	for i, name := range runtimeMetrics {
		samples[i].Name = name
	}
	metrics.Read(samples[:])
	var v [len(runtimeMetrics)]int64
	for i := range samples {
		if samples[i].Value.Kind() == metrics.KindUint64 {
			v[i] = int64(samples[i].Value.Uint64())
		}
	}
	st.Goroutines = v[0]
	st.HeapInuseBytes = v[1] + v[2]
	st.StackInuseBytes = v[3]
	st.TotalAllocBytes = v[4]
	st.GCCycles = v[5]
}

// statsJSON is the /v1/stats document, encoded as it is served.
func (s *Server) statsJSON() []byte {
	mod := s.querier.Module()
	hist := make([]int64, peersInRangeBuckets)
	for i := range hist {
		hist[i] = s.stat.peersInRange[i].Load()
	}
	st := Stats{
		POIs:                len(mod.POIs()),
		BoundsMinX:          s.bounds.Min.X,
		BoundsMinY:          s.bounds.Min.Y,
		BoundsMaxX:          s.bounds.Max.X,
		BoundsMaxY:          s.bounds.Max.Y,
		ActiveConns:         s.stat.activeConns.Load(),
		Positions:           s.stat.positions.Load(),
		Queries:             s.stat.queries.Load(),
		RangeQueries:        s.stat.ranges.Load(),
		ProtoErrors:         s.stat.protoErrors.Load(),
		ConnResets:          s.stat.connResets.Load(),
		WriteTimeouts:       s.stat.writeTimeouts.Load(),
		StoreReadMs:         float64(s.storeRead) / float64(time.Millisecond),
		IndexBuildMs:        float64(s.indexBuild) / float64(time.Millisecond),
		ServerQueries:       mod.Queries(),
		PageAccesses:        mod.PageAccesses(),
		RelayRequests:       s.stat.relayRequests.Load(),
		RelaySharesFwd:      s.stat.relayShares.Load(),
		RelayRejected:       s.stat.relayRejected.Load(),
		RelayUnknownReplies: s.stat.relayUnknown.Load(),
		RelayTimeouts:       s.stat.relayTimeouts.Load(),
		PeersInRangeHist:    hist,
		DirCellsScanned:     s.dir.cellsScanned.Load(),
		DirCandRejected:     s.dir.candRejected.Load(),
		DirPatchOps:         s.dir.patchOps.Load(),
	}
	st.IndexBytes, st.POITableBytes = mod.Bytes()
	st.IndexHeight, st.IndexNodes = mod.Tree().Height(), mod.Tree().Nodes()
	readRuntime(&st)
	readResident(&st)
	readCPU(&st)
	// Stats is plain numbers and a slice of them: encoding it cannot fail.
	doc, _ := json.MarshalIndent(st, "", "  ")
	return append(doc, '\n')
}
