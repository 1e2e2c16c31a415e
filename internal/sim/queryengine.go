package sim

import (
	"repro/internal/cache"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/nn"
	"repro/internal/rtree"
	"repro/internal/wire"
)

// The query pipeline decomposes what used to be a serial executeQuery loop
// into three explicit layers so a step's query batch can resolve
// concurrently without perturbing a single bit of output:
//
//   - plan — World.Run draws every random decision (querying host, k,
//     exponential inter-arrival gap) up-front in event order, so the RNG
//     stream never depends on how resolution is scheduled;
//   - resolve — each planned query gathers peer caches, runs the §3.2
//     verification lemmas, and falls back to the server EINN search. These
//     are pure reads against the step-start snapshot of host positions and
//     caches, fanned across Config.QueryWorkers goroutines with per-worker
//     scratch;
//   - commit — cache-policy writes, Metrics, series, and audit callbacks
//     are applied strictly in event order on the coordinating goroutine.
//
// Because resolvers share no mutable state (server counters are atomic,
// page accounting is per-traversal) and the commit order is the event
// order, the simulation output is bit-identical for any worker count.
//
// The snapshot semantics are part of the model, not an implementation
// accident: the paper's hosts resolve against the peer caches that exist
// when the query is issued (Algorithm 1, §4.1), so two queries arriving
// within the same one-second step do not observe each other's results.

// queryPlan is one planned query event: everything the plan phase drew from
// the world RNG, plus whether the event falls inside the measured
// (post-warm-up) window.
type queryPlan struct {
	at        float64 // event time on the Poisson clock
	host      int32   // querying host index
	k         int     // requested neighbor count
	recording bool    // event is past warm-up: commit tallies Metrics
}

// queryResult is the effect of resolving one plan, carried from the
// resolve phase to the commit phase.
type queryResult struct {
	q     geom.Point // query point (the host's step-start position)
	src   core.Source
	msgs  int64 // P2P messages the peer exchange cost
	bytes int64 // wire volume of those messages
	pages int64 // server page accesses (0 unless the server was contacted)
	write cache.StagedWrite
	// answer is the exact part the host acts on, recorded only when an
	// audit callback is installed.
	answer []core.Candidate
}

// resolverScratch is one worker's private resolve state: the shared
// transport-agnostic client core (internal/client owns the Algorithm-1
// orchestration and all its buffers) plus the simulator's two transport
// adapters, embedded by value so taking their address costs nothing.
// Everything is reused across the queries of a worker's shard; together
// with the engine-level snapshot buffers the steady-state resolve path —
// peer-solved and server-solved alike — is allocation-free
// (TestResolveAllocsPeerSolved and TestResolveAllocsServerSolved pin both
// at zero).
type resolverScratch struct {
	r       *client.Resolver
	peerSrc simPeerSource
	srv     simServerSource
}

// simPeerSource adapts the simulator's in-memory peer sweep to
// client.PeerSource. host and idx are set per query before Resolve runs:
// the querying host is excluded from its own broadcast, and idx keys the
// plan's cell snapshot.
type simPeerSource struct {
	e    *queryEngine
	host int32
	idx  int
}

// Gather appends every in-range peer's shareable cache entry to dst and
// accounts the P2P exchange: one broadcast request plus one cache-share
// response per peer holding data, costed at internal/wire codec sizes. The
// sweep reads the query cell's shared snapshot, which lists exactly the peer
// sequence a per-query grid sweep would visit (see cellSnap).
func (s *simPeerSource) Gather(q geom.Point, dst []core.PeerCache) ([]core.PeerCache, int64, int64) {
	e := s.e
	w := e.w
	msgs, bytes := int64(1), int64(wire.CacheRequestSize)
	tx2 := w.cfg.TxRange * w.cfg.TxRange
	snap := &e.snaps[e.snapOf[s.idx]]
	for j := range snap.peers {
		sp := &snap.peers[j]
		if sp.host == s.host {
			continue
		}
		if q.Dist2(w.pos[sp.host]) > tx2 {
			continue
		}
		dst = append(dst, sp.entry)
		msgs++
		bytes += sp.share
	}
	return dst, msgs, bytes
}

// simServerSource adapts the in-process ServerModule to client.Server. The
// EINN iterator's priority queue lives here so the traversal runs through
// pooled scratch (no allocations); the in-process module cannot fail, so
// the error is always nil.
type simServerSource struct {
	mod *ServerModule
	it  nn.Iterator[rtree.Node]
}

func (s *simServerSource) KNNInto(q geom.Point, k int, b nn.Bounds, dst []core.POI) ([]core.POI, int64, error) {
	out, pages := s.mod.KNNInto(q, k, b, &s.it, dst)
	return out, pages, nil
}

// snapPeer is one shareable peer cache inside a cell-neighborhood snapshot:
// the owning host, the cache entry, and the precomputed wire size of sharing
// it. The host's position is deliberately NOT captured: resolvers read it
// live from the world's SoA column (step-start positions are stable for the
// whole batch), which is what lets a snapshot survive steps where hosts
// moved without changing cell.
type snapPeer struct {
	host  int32
	entry core.PeerCache
	share int64
}

// cellSnap is the peer-cache snapshot of one grid-cell neighborhood,
// gathered once and shared by every query whose point falls in that cell
// (the per-step spatial join). peers holds the hosts of the cell's Cover
// neighborhood that have a cache entry, in enumeration order (cells
// row-major, hosts ascending within a cell), so a resolver filtering it by
// host index and TxRange sees the identical peer sequence a per-query grid
// sweep would produce (TestBatchedGatherMatchesPerQuery).
//
// Snapshots persist across batches: fillStamp records the world's
// dirty-cell clock at fill time, and the snapshot is reused as long as no
// cell of its neighborhood has been stamped since (no membership change, no
// resident cache write — see World.noteCellChanges). A reused snapshot is
// byte-identical to what a fresh fill would produce.
type cellSnap struct {
	cx, cy    int
	fillStamp uint64 // world clock at fill; 0 = never filled
	seen      uint64 // batch counter: validity already checked this batch
	peers     []snapPeer
}

// maxCachedSnaps bounds the persistent snapshot cache; a long run over a
// huge area could otherwise accumulate one entry per ever-queried cell.
const maxCachedSnaps = 8192

// queryEngine owns the batch buffers and worker scratch of the
// plan/resolve/commit pipeline.
type queryEngine struct {
	w       *World
	workers int
	scratch []*resolverScratch
	plans   []queryPlan
	results []queryResult
	// Gather-phase state: snapOf[i] is the index into snaps of plan i's cell
	// snapshot. snaps and cellIdx persist across batches; fills lists the
	// snaps this batch must (re)fill.
	snapOf  []int32
	cellIdx map[[2]int]int32 // raw cell coords -> snaps index
	snaps   []cellSnap
	fills   []int32
	batch   uint64
	// Reuse accounting (World.GatherReuse).
	snapHits  uint64
	snapFills uint64
}

func newQueryEngine(w *World, workers int) *queryEngine {
	if workers < 1 {
		workers = 1
	}
	e := &queryEngine{w: w, workers: workers, scratch: make([]*resolverScratch, workers)}
	for i := range e.scratch {
		e.scratch[i] = &resolverScratch{r: client.NewResolver()}
		e.scratch[i].peerSrc.e = e
	}
	return e
}

// initQueryEngine arms the query pipeline with the given resolve worker
// count (minimum 1). Split out of New so benchmarks can re-arm the same
// world at different counts.
func (w *World) initQueryEngine(workers int) {
	w.qengine = newQueryEngine(w, workers)
}

// GatherReuse reports how many cell snapshots the batched gather phase
// reused versus filled since the world was built — diagnostic output for
// the dirty-cell reuse machinery.
func (w *World) GatherReuse() (hits, fills uint64) {
	return w.qengine.snapHits, w.qengine.snapFills
}

// runBatch resolves the planned queries concurrently and commits their
// effects in event order, leaving the plan buffer empty for the next step.
func (e *queryEngine) runBatch() {
	n := len(e.plans)
	if n == 0 {
		return
	}
	if cap(e.results) < n {
		e.results = make([]queryResult, n)
	}
	e.results = e.results[:n]
	for _, sc := range e.scratch {
		sc.r.ResetArena()
	}
	e.gatherCells()

	workers := e.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		sc := e.scratch[0]
		for i := range e.plans {
			e.results[i] = e.resolve(&e.plans[i], i, sc)
		}
	} else {
		shards := splitRange(n, workers)
		runWorkers(len(shards), func(s int) {
			sc := e.scratch[s]
			for i := shards[s][0]; i < shards[s][1]; i++ {
				e.results[i] = e.resolve(&e.plans[i], i, sc)
			}
		})
	}

	// Advance the dirty-cell clock past every fill of this batch, so the
	// cache writes committed below stamp strictly later than the snapshots
	// gathered above.
	e.w.clock++
	for i := range e.plans {
		e.commit(&e.plans[i], &e.results[i])
	}
	e.plans = e.plans[:0]
}

// gatherCells is the batched per-step spatial join: it groups the batch's
// queries by the raw grid cell of their query point and snapshots each
// distinct cell neighborhood's shareable peer caches once, instead of
// re-sweeping the host grid per query. The snapshot is sound because the
// resolve phase is a pure read of step-start state — host positions and
// caches cannot change until every resolve has finished (commits run after
// the fan-out), so a cache entry captured here is exactly what a per-query
// sweep would read mid-batch.
//
// Snapshots persist across batches and are only refilled when the
// dirty-cell clock says something in their neighborhood changed; quiescent
// regions of the world answer repeated queries from the same snapshot.
func (e *queryEngine) gatherCells() {
	w := e.w
	if e.cellIdx == nil {
		e.cellIdx = make(map[[2]int]int32)
	}
	if len(e.snaps) > maxCachedSnaps {
		clear(e.cellIdx)
		e.snaps = e.snaps[:0]
	}
	e.batch++
	if cap(e.snapOf) < len(e.plans) {
		e.snapOf = make([]int32, len(e.plans))
	}
	e.snapOf = e.snapOf[:len(e.plans)]
	e.fills = e.fills[:0]
	for i := range e.plans {
		q := w.pos[e.plans[i].host]
		cx, cy := w.grid.RawCell(q)
		key := [2]int{cx, cy}
		idx, ok := e.cellIdx[key]
		if !ok {
			idx = int32(len(e.snaps))
			e.cellIdx[key] = idx
			// Extend without clobbering: reslicing into spare capacity keeps
			// the retired element's peers buffer for reuse.
			if len(e.snaps) < cap(e.snaps) {
				e.snaps = e.snaps[:len(e.snaps)+1]
			} else {
				e.snaps = append(e.snaps, cellSnap{})
			}
			s := &e.snaps[idx]
			s.cx, s.cy = cx, cy
			s.fillStamp = 0
			s.seen = 0
			s.peers = s.peers[:0]
		}
		e.snapOf[i] = idx
		s := &e.snaps[idx]
		if s.seen == e.batch {
			continue // validity already decided this batch
		}
		s.seen = e.batch
		if s.fillStamp != 0 && e.snapValid(s) {
			e.snapHits++
			continue
		}
		e.fills = append(e.fills, idx)
	}
	e.snapFills += uint64(len(e.fills))

	// Distinct cells are independent, so the snapshot fill fans out across
	// the resolve workers; each worker writes only its own snaps slots.
	if e.workers <= 1 || len(e.fills) == 1 {
		for _, idx := range e.fills {
			e.fillSnap(&e.snaps[idx])
		}
	} else if len(e.fills) > 1 {
		workers := e.workers
		if workers > len(e.fills) {
			workers = len(e.fills)
		}
		shards := splitRange(len(e.fills), workers)
		runWorkers(len(shards), func(s int) {
			for i := shards[s][0]; i < shards[s][1]; i++ {
				e.fillSnap(&e.snaps[e.fills[i]])
			}
		})
	}
}

// snapValid reports whether s still reflects its neighborhood: no cell of
// its Cover rectangle may have been stamped after the snapshot was filled
// (membership change or resident cache write).
func (e *queryEngine) snapValid(s *cellSnap) bool {
	w := e.w
	x0, y0, x1, y1 := w.grid.Cover(s.cx, s.cy, w.cfg.TxRange)
	for y := y0; y <= y1; y++ {
		row := y * w.grid.NX()
		for _, stamp := range w.cellStamp[row+x0 : row+x1+1] {
			if stamp > s.fillStamp {
				return false
			}
		}
	}
	return true
}

// fillSnap captures one cell neighborhood's shareable caches in enumeration
// order (cells row-major, hosts ascending within a cell).
func (e *queryEngine) fillSnap(s *cellSnap) {
	w := e.w
	s.peers = s.peers[:0]
	s.fillStamp = w.clock
	x0, y0, x1, y1 := w.grid.Cover(s.cx, s.cy, w.cfg.TxRange)
	for y := y0; y <= y1; y++ {
		for _, hi := range w.grid.Row(y, x0, x1) {
			if ent, ok := w.caches[hi].Entry(); ok {
				s.peers = append(s.peers, snapPeer{
					host:  hi,
					entry: ent,
					share: int64(wire.CacheShareSize(len(ent.Neighbors))),
				})
			}
		}
	}
}

// resolve runs one complete SENN query against the step-start snapshot by
// handing the plan to the shared client core (internal/client owns
// Algorithm 1: peer verification, the uncertain shortcut, the server
// fallback with the §3.3 pruning bounds) wired to the simulator's two
// transports. It only reads world state — every effect is returned in the
// queryResult for the commit phase. idx is the plan's batch position (it
// keys the cell snapshot). Both the peer-solved and
// the server-solved path perform no heap allocations in steady state.
func (e *queryEngine) resolve(p *queryPlan, idx int, sc *resolverScratch) queryResult {
	w := e.w
	q := w.pos[p.host]
	sc.peerSrc.host, sc.peerSrc.idx = p.host, idx
	sc.srv.mod = w.server
	out := sc.r.Resolve(client.Request{
		Q:               q,
		K:               p.k,
		Cache:           &w.caches[p.host],
		AcceptUncertain: w.cfg.AcceptUncertain,
		// The audit callback retains the answer past this worker's next
		// query, so it needs the private copy NeedAnswer provides
		// (test-only path; that allocation is fine).
		NeedAnswer: w.audit != nil,
	}, &sc.peerSrc, &sc.srv)
	return queryResult{
		q:      q,
		src:    out.Src,
		msgs:   out.Msgs,
		bytes:  out.Bytes,
		pages:  out.Pages,
		write:  out.Write,
		answer: out.Answer,
	}
}

// commit applies one resolved query's effects: the time series observes
// every outcome (including the warm-up transient), Metrics tally only past
// warm-up, and cache policy 1 writes land in event order. A write that
// lands also stamps the host's cell on the dirty-cell clock, so snapshots
// whose neighborhood saw the new cache refill before their next reuse.
func (e *queryEngine) commit(p *queryPlan, r *queryResult) {
	w := e.w
	if w.series != nil {
		var s querySource
		switch r.src {
		case core.SolvedBySinglePeer:
			s = srcSingle
		case core.SolvedByMultiPeer:
			s = srcMulti
		case core.SolvedUncertain:
			s = srcUncertain
		default:
			s = srcServer
		}
		w.series.observe(p.at, s)
	}
	if p.recording {
		w.metrics.TotalQueries++
		switch r.src {
		case core.SolvedBySinglePeer:
			w.metrics.SolvedBySingle++
		case core.SolvedByMultiPeer:
			w.metrics.SolvedByMulti++
		case core.SolvedUncertain:
			w.metrics.SolvedUncertain++
		case core.SolvedByServer:
			w.metrics.SolvedByServer++
		}
		w.metrics.PeerMessages += r.msgs
		w.metrics.PeerBytes += r.bytes
		w.metrics.ServerPageAccesses += r.pages
	}
	if r.write.Staged() {
		old, hadOld := w.caches[p.host].Entry()
		r.write.Apply(&w.caches[p.host])
		// Stamp only when the stored entry actually changed: a parked host
		// re-answering from its own cache rewrites an identical entry, and
		// stamping it would invalidate its whole neighborhood's snapshots
		// every time the cell is queried — self-defeating for reuse. An
		// unchanged entry leaves every snapshot byte-identical to a fresh
		// fill, so skipping the stamp is sound. (Store copies on Apply, so
		// old still references the pre-write slice here.)
		if now, ok := w.caches[p.host].Entry(); !ok || !hadOld || !peerCacheEqual(old, now) {
			w.cellStamp[w.cells[p.host]] = w.clock
		}
	}
	if w.audit != nil {
		w.audit(r.q, p.k, r.answer, r.src)
	}
}

// peerCacheEqual reports whether two cache entries are identical as the
// gather phase captures them: same query location, same neighbor sequence
// (the share size is a function of the neighbor count).
func peerCacheEqual(a, b core.PeerCache) bool {
	if a.QueryLoc != b.QueryLoc || len(a.Neighbors) != len(b.Neighbors) {
		return false
	}
	for i := range a.Neighbors {
		if a.Neighbors[i] != b.Neighbors[i] {
			return false
		}
	}
	return true
}
