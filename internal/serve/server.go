package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"net/http"
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
	// MaxK caps the k served per query (default 512, never above
	// wire.MaxQueryK — the codec rejects larger requests before the server
	// sees them).
	MaxK int
	// MaxAnswer caps the neighbors a single answer may carry; range
	// queries whose result exceeds it get a wire.ErrCodeTooLarge error
	// reply instead of a truncated (and therefore uncertifiable) region.
	// Default 4096.
	MaxAnswer int
	// Bounds is the service area reported to clients (default: the store's
	// or the POI set's bounding box).
	Bounds geom.Rect
	// MaxTxRange caps the transmission radius a PeerRequest may ask the
	// relay to sweep (default 10000). Larger requested radii are clamped,
	// not refused — the paper's hosts cannot grow their antennas either.
	MaxTxRange float64
	// RelayTimeout bounds how long a peer-cache relay waits for probed
	// sessions before delivering what arrived (default 2s).
	RelayTimeout time.Duration
	// StoreRead and IndexBuild are what the caller measured reading the POI
	// store and building the R*-tree at boot. They are not knobs: the server
	// only reports them on /v1/stats (store_read_ms, index_build_ms), so an
	// operator can see what a restart costs without a profiler.
	StoreRead  time.Duration
	IndexBuild time.Duration
}

// Server is the network face of the remote spatial database: HTTP for
// session setup and statistics, WebSocket + internal/wire binary messages
// for the query channel. All query traffic funnels into a
// sim.SnapshotQuerier over the shared read-only R*-tree, so any number of
// connection goroutines serve concurrently.
type Server struct {
	querier      *sim.SnapshotQuerier
	maxK         int
	maxAnswer    int
	maxTxRange   float64
	relayTimeout time.Duration
	bounds       geom.Rect
	storeRead    time.Duration
	indexBuild   time.Duration
	mux          *http.ServeMux

	mu       sync.Mutex
	sessions map[string]*session
	// conns are the connections with a running runConn, counted by connWG;
	// once closed is set (Close) no further one is admitted.
	conns  map[*WSConn]struct{}
	closed bool
	connWG sync.WaitGroup

	// dir is the sharded spatial index over session positions: the relay's
	// range sweep reads it instead of walking s.sessions under s.mu.
	dir *sessionDirectory

	relay relayTable

	stat struct {
		sessions    atomic.Int64
		activeConns atomic.Int64
		positions   atomic.Int64
		queries     atomic.Int64
		ranges      atomic.Int64
		protoErrors atomic.Int64
		// Relay counters: requests received, shares delivered to
		// requesters, oversized shares refused, replies with unknown
		// (forged, duplicate, or post-timeout) probe IDs, relays that rode
		// the timeout, and the peers-in-range histogram (see
		// peersInRangeBucket for the bucket boundaries).
		relayRequests atomic.Int64
		relayShares   atomic.Int64
		relayRejected atomic.Int64
		relayUnknown  atomic.Int64
		relayTimeouts atomic.Int64
		peersInRange  [peersInRangeBuckets]atomic.Int64
	}
}

// peersInRangeBuckets is the peers-in-range histogram size: 0, 1, 2-3,
// 4-7, 8-15, 16-31, 32+.
const peersInRangeBuckets = 7

// session is one registered client: its live connection for relay probes
// and its place in the spatial directory, which holds the last reported
// position the peer relay's range scan reads.
type session struct {
	mu   sync.Mutex
	conn *WSConn

	// Spatial-directory bookkeeping. dirMu serializes this session's cell
	// transitions; dirIn/dirCell are read and written only under dirMu, and
	// dirSlot only under the owning cell's shard lock (see directory.go for
	// the full lock-ordering story).
	dirMu   sync.Mutex
	dirIn   bool
	dirCell int32
	dirSlot int32
}

// NewServer wraps mod with the network service.
func NewServer(mod *sim.ServerModule, opts Options) *Server {
	if opts.MaxK <= 0 {
		opts.MaxK = 512
	}
	if opts.MaxK > wire.MaxQueryK {
		opts.MaxK = wire.MaxQueryK
	}
	if opts.MaxAnswer <= 0 {
		opts.MaxAnswer = 4096
	}
	if opts.MaxTxRange <= 0 {
		opts.MaxTxRange = defaultMaxTxRange
	}
	if opts.RelayTimeout <= 0 {
		opts.RelayTimeout = defaultRelayTimeout
	}
	bounds := opts.Bounds
	if bounds.Max.X <= bounds.Min.X || bounds.Max.Y <= bounds.Min.Y {
		bounds = poiBounds(mod.POIs())
	}
	s := &Server{
		querier:      sim.NewSnapshotQuerier(mod),
		maxK:         opts.MaxK,
		maxAnswer:    opts.MaxAnswer,
		maxTxRange:   opts.MaxTxRange,
		relayTimeout: opts.RelayTimeout,
		bounds:       bounds,
		storeRead:    opts.StoreRead,
		indexBuild:   opts.IndexBuild,
		sessions:     make(map[string]*session),
		conns:        make(map[*WSConn]struct{}),
		dir:          newSessionDirectory(bounds, 0, 0),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/session", s.handleNewSession)
	mux.HandleFunc("GET /v1/ws", s.handleWS)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux = mux
	return s
}

// poiBounds computes the bounding box of the data set (zero rect when
// empty).
func poiBounds(pois []core.POI) geom.Rect {
	if len(pois) == 0 {
		return geom.Rect{}
	}
	b := geom.Rect{Min: pois[0].Loc, Max: pois[0].Loc}
	for _, p := range pois[1:] {
		if p.Loc.X < b.Min.X {
			b.Min.X = p.Loc.X
		}
		if p.Loc.Y < b.Min.Y {
			b.Min.Y = p.Loc.Y
		}
		if p.Loc.X > b.Max.X {
			b.Max.X = p.Loc.X
		}
		if p.Loc.Y > b.Max.Y {
			b.Max.Y = p.Loc.Y
		}
	}
	return b
}

// Handler returns the HTTP handler serving all endpoints.
func (s *Server) Handler() http.Handler { return s.mux }

// newToken mints a 128-bit random session token.
func newToken() (string, error) {
	var raw [16]byte
	if _, err := rand.Read(raw[:]); err != nil {
		return "", err
	}
	return hex.EncodeToString(raw[:]), nil
}

func (s *Server) handleNewSession(w http.ResponseWriter, r *http.Request) {
	token, err := newToken()
	if err != nil {
		http.Error(w, "session: entropy unavailable", http.StatusInternalServerError)
		return
	}
	s.mu.Lock()
	s.sessions[token] = &session{}
	s.mu.Unlock()
	s.stat.sessions.Add(1)
	writeJSON(w, map[string]string{"session": token})
}

func (s *Server) lookup(token string) *session {
	if token == "" {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[token]
}

func (s *Server) handleWS(w http.ResponseWriter, r *http.Request) {
	sess := s.lookup(r.URL.Query().Get("session"))
	if sess == nil {
		http.Error(w, "unknown session (POST /v1/session first)", http.StatusForbidden)
		return
	}
	ws, err := Upgrade(w, r)
	if err != nil {
		return // Upgrade wrote the HTTP error
	}
	s.mu.Lock()
	closed := s.closed
	if !closed {
		s.conns[ws] = struct{}{}
		s.connWG.Add(1)
	}
	s.mu.Unlock()
	if closed {
		ws.goingAway()
		return
	}
	// Attach the connection to the session so the peer relay can probe it;
	// a reconnect simply supersedes the previous attachment.
	sess.mu.Lock()
	sess.conn = ws
	sess.mu.Unlock()
	s.stat.activeConns.Add(1)
	// The connection gets a goroutine of its own and the handler returns:
	// net/http's conn.serve frame (the better part of a 16 KB stack), its
	// http.conn, the Request and its contexts are all released, instead of
	// idling under every parked session. The goroutine ends when the
	// transport does (peer close, protocol error, write failure, Close).
	go s.runConn(sess, ws)
}

// Close drains the server for a restart: it admits no further connection,
// ends every open one with a 1001 (going away) close frame and waits for the
// connection goroutines to finish, or for ctx. http.Server.Shutdown cannot do
// this — it does not know hijacked connections, so without Close a process
// exit cuts every WebSocket with a reset. Call it before Shutdown.
func (s *Server) Close(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	conns := make([]*WSConn, 0, len(s.conns))
	for ws := range s.conns {
		conns = append(conns, ws)
	}
	s.mu.Unlock()
	for _, ws := range conns {
		if ctx.Err() != nil {
			break
		}
		ws.goingAway()
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

// draining reports whether Close has begun.
func (s *Server) draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// runConn owns one upgraded connection from attachment to teardown.
func (s *Server) runConn(sess *session, ws *WSConn) {
	defer s.connWG.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, ws)
		s.mu.Unlock()
	}()
	defer s.stat.activeConns.Add(-1)
	defer s.dropConn(sess, ws)
	//simvet:discard — teardown of a finished connection; serveConn already accounted the session-ending error
	defer ws.Close()
	s.serveConn(sess, ws)
}

// serveConn runs one connection's read-dispatch-answer loop. The scratch
// slice and the encode buffer keep steady-state kNN and range serving
// allocation-free: results land in scratch, answers are encoded append-style
// into encBuf and handed to the batched writer, which copies into the
// connection's pending buffer before returning.
func (s *Server) serveConn(sess *session, ws *WSConn) {
	var scratch []core.POI
	var encBuf []byte
	for {
		data, err := ws.ReadMessage()
		if err != nil {
			// Orderly close, peer protocol violation, or transport death:
			// the connection is done either way. Protocol violations are
			// accounted so the load harness can gate on zero; the read that
			// fails because Close took the transport away is not one.
			if err != ErrConnClosed && !s.draining() {
				s.stat.protoErrors.Add(1)
			}
			return
		}
		if typ, err := wire.PeekType(data); err == nil && typ == wire.TypeShareReply {
			// Forwarded as bytes, never decoded; like every decoded message
			// it does not alias data past this iteration (the next
			// ReadMessage overwrites it).
			if s.handleShareReply(sess, data) != nil {
				s.rejectFrame(ws)
				return
			}
			continue
		}
		msg, err := wire.Decode(data)
		if err != nil {
			s.rejectFrame(ws)
			return
		}
		switch msg.Type {
		case wire.TypePosition:
			s.dir.update(sess, msg.Pos)
			s.stat.positions.Add(1)
		case wire.TypeQuery:
			q := msg.Query
			if q.K > s.maxK {
				s.stat.protoErrors.Add(1)
				if ws.WriteBinary(wire.EncodeError(wire.ErrorMsg{ReqID: q.ReqID, Code: wire.ErrCodeBadRequest})) != nil {
					return
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
			if ws.WriteBinaryBatched(encBuf) != nil {
				return
			}
		case wire.TypeRange:
			rq := msg.Range
			var ok bool
			scratch, ok = s.querier.RangeInto(rq.Loc, rq.Radius, s.maxAnswer, scratch)
			s.stat.ranges.Add(1)
			if !ok {
				// A truncated range answer would claim a certain region it
				// does not cover; refuse instead. The search itself stopped
				// at the cap, so a whole-map radius costs one bounded scan.
				if ws.WriteBinary(wire.EncodeError(wire.ErrorMsg{ReqID: rq.ReqID, Code: wire.ErrCodeTooLarge})) != nil {
					return
				}
				continue
			}
			ans := wire.Answer{
				ReqID: rq.ReqID,
				Cache: core.PeerCache{QueryLoc: rq.Loc, Neighbors: scratch},
			}
			encBuf = wire.AppendAnswer(encBuf[:0], ans)
			if ws.WriteBinaryBatched(encBuf) != nil {
				return
			}
		case wire.TypePeerRequest:
			if s.startRelay(sess, ws, msg.PeerReq) != nil {
				return
			}
		default:
			// Raw air-interface messages (CacheShare, CacheRequest) and
			// server-to-client messages have no meaning client-to-server;
			// the relayed forms (PeerRequest, ShareReply) are handled above.
			s.stat.protoErrors.Add(1)
			if ws.WriteBinary(wire.EncodeError(wire.ErrorMsg{Code: wire.ErrCodeUnsupported})) != nil {
				return
			}
		}
	}
}

// rejectFrame accounts and reports garbage framing inside a valid WebSocket
// message; the caller then tears the connection down — strict, like a
// WebSocket protocol violation.
func (s *Server) rejectFrame(ws *WSConn) {
	s.stat.protoErrors.Add(1)
	//simvet:discard — best-effort error report on a connection being torn down; the write failing changes nothing
	_ = ws.WriteBinary(wire.EncodeError(wire.ErrorMsg{Code: wire.ErrCodeBadRequest}))
}

// Stats is the /v1/stats document.
type Stats struct {
	POIs         int     `json:"pois"`
	BoundsMinX   float64 `json:"bounds_min_x"`
	BoundsMinY   float64 `json:"bounds_min_y"`
	BoundsMaxX   float64 `json:"bounds_max_x"`
	BoundsMaxY   float64 `json:"bounds_max_y"`
	Sessions     int     `json:"sessions"`
	ActiveConns  int64   `json:"active_conns"`
	Positions    int64   `json:"positions"`
	Queries      int64   `json:"queries"`
	RangeQueries int64   `json:"range_queries"`
	ProtoErrors  int64   `json:"protocol_errors"`
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
	// 16-31, 32+.
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

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	nSessions := len(s.sessions)
	s.mu.Unlock()
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
		Sessions:            nSessions,
		ActiveConns:         s.stat.activeConns.Load(),
		Positions:           s.stat.positions.Load(),
		Queries:             s.stat.queries.Load(),
		RangeQueries:        s.stat.ranges.Load(),
		ProtoErrors:         s.stat.protoErrors.Load(),
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
	writeJSON(w, st)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte("ok\n"))
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
