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
// Everything is reused across the queries of a worker's shard, so the
// steady-state resolve path — peer-solved and server-solved alike — is
// allocation-free (TestResolveAllocsPeerSolved and
// TestResolveAllocsServerSolved pin both at zero).
//
// arena holds the cache entries one query reads — the querying host's own
// and every in-range peer's, materialised from the cache table — and is
// reset per query. own is the querying host's cache as the *cache.Cache
// client.Request takes: a view of its table entry, so the table keeps no
// Cache per host.
type resolverScratch struct {
	r       *client.Resolver
	arena   cache.Arena
	own     cache.Cache
	peerSrc simPeerSource
	srv     simServerSource
}

// simPeerSource adapts the simulator's in-memory peer sweep to
// client.PeerSource. host is set per query before Resolve runs: the querying
// host is excluded from its own broadcast. arena is the worker's
// resolverScratch.arena.
type simPeerSource struct {
	w     *World
	arena *cache.Arena
	host  int32
}

// Gather appends every in-range peer's shareable cache entry to dst and
// accounts the P2P exchange: one broadcast request plus one cache-share
// response per peer holding data, costed at internal/wire codec sizes. It
// sweeps the host grid around q — cells row-major, hosts ascending within a
// cell — reading step-start positions and caches, which cannot change until
// every resolve of the batch has finished, so the peer sequence is the same
// for any worker count (TestGatherMatchesLinearScan).
func (s *simPeerSource) Gather(q geom.Point, dst []core.PeerCache) ([]core.PeerCache, int64, int64) {
	w := s.w
	msgs, bytes := int64(1), int64(wire.CacheRequestSize)
	tx2 := w.cfg.TxRange * w.cfg.TxRange
	cx, cy := w.grid.RawCell(q)
	x0, y0, x1, y1 := w.grid.Cover(cx, cy, w.cfg.TxRange)
	for y := y0; y <= y1; y++ {
		for _, h := range w.grid.Row(y, x0, x1) {
			if h == s.host || q.Dist2(w.pos[h]) > tx2 {
				continue
			}
			if ent, ok := w.caches.Entry(int(h), s.arena); ok {
				dst = append(dst, ent)
				msgs++
				bytes += int64(wire.CacheShareSize(len(ent.Neighbors)))
			}
		}
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

// queryEngine owns the batch buffers and worker scratch of the
// plan/resolve/commit pipeline.
type queryEngine struct {
	w       *World
	workers int
	scratch []*resolverScratch
	plans   []queryPlan
	results []queryResult
}

func newQueryEngine(w *World, workers int) *queryEngine {
	if workers < 1 {
		workers = 1
	}
	e := &queryEngine{w: w, workers: workers, scratch: make([]*resolverScratch, workers)}
	for i := range e.scratch {
		e.scratch[i] = &resolverScratch{r: client.NewResolver()}
		e.scratch[i].peerSrc.w = w
		e.scratch[i].peerSrc.arena = &e.scratch[i].arena
	}
	return e
}

// initQueryEngine arms the query pipeline with the given resolve worker
// count (minimum 1). Split out of New so benchmarks can re-arm the same
// world at different counts.
func (w *World) initQueryEngine(workers int) {
	w.qengine = newQueryEngine(w, workers)
}

// GatherReuse is the vestige of the deleted cell-snapshot cache: every query
// sweeps the grid itself, so it reports zero hits and one fill per measured
// query. bench/sim.go (which PR 14 could not edit) still calls it; it goes
// away with that harness's sim.gather_reuse_ratio metric.
func (w *World) GatherReuse() (hits, fills uint64) {
	return 0, uint64(w.metrics.TotalQueries)
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

	workers := e.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		sc := e.scratch[0]
		for i := range e.plans {
			e.results[i] = e.resolve(&e.plans[i], sc)
		}
	} else {
		shards := splitRange(n, workers)
		runWorkers(len(shards), func(s int) {
			sc := e.scratch[s]
			for i := shards[s][0]; i < shards[s][1]; i++ {
				e.results[i] = e.resolve(&e.plans[i], sc)
			}
		})
	}

	for i := range e.plans {
		e.commit(&e.plans[i], &e.results[i])
	}
	e.plans = e.plans[:0]
}

// resolve runs one complete SENN query against the step-start snapshot by
// handing the plan to the shared client core (internal/client owns
// Algorithm 1: peer verification, the uncertain shortcut, the server
// fallback with the §3.3 pruning bounds) wired to the simulator's two
// transports. It only reads world state — every effect is returned in the
// queryResult for the commit phase. Both the peer-solved and the
// server-solved path perform no heap allocations in steady state.
func (e *queryEngine) resolve(p *queryPlan, sc *resolverScratch) queryResult {
	w := e.w
	q := w.pos[p.host]
	sc.peerSrc.host = p.host
	sc.srv.mod = w.server
	sc.arena.Reset()
	sc.own = w.caches.View(int(p.host), &sc.arena)
	out := sc.r.Resolve(client.Request{
		Q:               q,
		K:               p.k,
		Cache:           &sc.own,
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
// warm-up, and cache policy 1 writes land in event order.
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
	r.write.ApplyAt(w.caches, int(p.host))
	if w.audit != nil {
		w.audit(r.q, p.k, r.answer, r.src)
	}
}
