// Package client is the transport-agnostic SENN client core: the one
// implementation of Algorithm 1 every mobile host in this repository runs,
// whether it is a simulated host resolving against an in-process grid
// snapshot (internal/sim) or a networked client gathering peer caches
// through the daemon relay and falling back to the wire query channel
// (internal/serve).
//
// The core owns the client-side pipeline of §4.1:
//
//   - consult the local cache (policy 1's stored entry is just the nearest
//     peer),
//   - gather shareable peer caches from the pluggable PeerSource,
//   - verify them with the §3.2 lemmas (core.VerifierScratch.VerifyPeers:
//     everything the received shares certify, singly or merged, so the cache
//     write keeps all the exchange licensed — DESIGN §4 D8, D9),
//   - optionally accept a full-but-uncertain answer (Algorithm 1 line 15),
//   - otherwise fall back to the pluggable Server with the §3.3 pruning
//     bounds, topping the request up to cache capacity (policy 2),
//   - and stage the cache policy 1 write for the caller to apply.
//
// What varies by transport — where peer caches come from, and how the
// server is reached — is behind the two small interfaces. Everything else
// (ordering, verification, bound extraction, cache policy) is shared, so
// the simulator and the network client cannot drift apart: the served
// system answers exactly like the simulated one, which the over-the-socket
// oracle tests in internal/serve pin.
//
// A Resolver is single-goroutine scratch. Its steady-state resolve path
// performs no heap allocations (the simulator's TestResolveAllocs* tests
// pin both the peer-solved and the server-solved path at zero), which is
// why buffers — peer slice, result heap, verifier scratch, POI arena —
// live on the Resolver and are recycled across queries.
package client

import (
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/nn"
)

// PeerSource supplies the shareable peer caches within transmission range
// of a query point — the P2P exchange of §4.1 behind whatever transport
// carries it (grid sweep, daemon relay). Gather appends the
// peers to dst and returns the extended slice together with the exchange's
// accounted cost: message count (the broadcast request plus one share per
// responding peer) and wire volume (internal/wire's priced air-interface
// sizes).
//
// Verification does not depend on the enumeration order (the result heap
// orders what it is fed); the accounted cost must be deterministic for a
// deterministic caller.
type PeerSource interface {
	Gather(q geom.Point, dst []core.PeerCache) (peers []core.PeerCache, msgs, bytes int64)
}

// Server is the remote spatial database fallback. KNNInto appends up to k
// POIs to dst[:0] — in ascending distance order, all strictly beyond the
// lower bound when one is set — and returns the extended slice plus the
// page-access cost the traversal charged (EINN under the §3.3 bounds).
// Implementations reuse dst's backing array across calls.
type Server interface {
	KNNInto(q geom.Point, k int, b nn.Bounds, dst []core.POI) ([]core.POI, int64, error)
}

// Request is one SENN query.
type Request struct {
	// Q is the query point (the host's current position).
	Q geom.Point
	// K is the requested neighbor count.
	K int
	// Cache is the host's local NN cache. Its entry (when valid) joins the
	// peer set first — the local-cache check of §4.1 — and its capacity
	// sizes the server top-up of policy 2. May be nil for a cacheless host.
	Cache *cache.Cache
	// AcceptUncertain allows a full heap with uncertain entries to stand as
	// the answer without contacting the server (Algorithm 1 line 15).
	AcceptUncertain bool
	// NeedAnswer asks the resolver to return a private copy of the answer
	// candidates in Outcome.Answer. Callers that only need the effects
	// (cache write, counters) leave it false and keep the path
	// allocation-free.
	NeedAnswer bool
}

// Outcome is the effect of resolving one request. The cache write is staged,
// not applied: the simulator commits writes in event order, the networked
// client applies immediately.
type Outcome struct {
	// Src records which mechanism resolved the query.
	Src core.Source
	// Msgs and Bytes are the P2P exchange cost reported by the PeerSource.
	Msgs, Bytes int64
	// Pages is the server page-access cost (0 unless the server was
	// contacted).
	Pages int64
	// PeersUsed is the number of non-empty shares verification received (the
	// local cache counts when it held an entry).
	PeersUsed int
	// Write is the pending cache policy 1 update. Its POI slice lives in
	// the Resolver's arena: it stays valid until the next ResetArena, and
	// cache.Store copies on Apply.
	Write cache.StagedWrite
	// Answer holds the up-to-k answer candidates in ascending distance
	// order when Request.NeedAnswer was set (a private copy, safe to
	// retain).
	Answer []core.Candidate
	// Err is the server transport failure, if any; when set, Src is
	// SolvedByServer and the rest of the outcome is not meaningful.
	Err error
}

// PeerSolved reports whether the query completed without the server.
func (o *Outcome) PeerSolved() bool {
	return o.Err == nil && o.Src != core.SolvedByServer
}

// Resolver is the reusable scratch of one SENN client. One resolver serves
// one goroutine; a parallel caller keeps one per worker. The zero value is
// not ready — construct with NewResolver.
type Resolver struct {
	peers  []core.PeerCache
	heap   *core.ResultHeap
	verify core.VerifierScratch
	// poiArena backs the POI slices handed to cache.Stage. It is reset by
	// ResetArena, not per query: staged slices must stay intact until the
	// caller applies them (cache.Store copies on Apply, so nothing
	// references arena memory past that).
	poiArena []core.POI
	// full merges certified heap entries with server-fetched POIs on the
	// fallback path.
	full []core.Candidate
	// fetched is the server fallback's destination buffer, reused across
	// queries.
	fetched []core.POI
}

// NewResolver returns a resolver with empty scratch.
func NewResolver() *Resolver {
	return &Resolver{heap: core.NewResultHeap(1)}
}

// ResetArena recycles the arena backing staged cache writes. Call it only
// once every Write staged since the previous reset has been applied (or
// abandoned): batch start in the simulator, after the cache update in the
// networked client.
func (r *Resolver) ResetArena() {
	r.poiArena = r.poiArena[:0]
}

// Resolve runs one complete SENN query (Algorithm 1): local cache, peer
// gather, kNN_single/kNN_multiple verification, then the server fallback
// with the §3.3 pruning bounds. The k-th certificate settles the answer but
// does not end verification: the shares already received certify what more
// they can, alone and merged, for the staged cache write (DESIGN §4 D8). It
// mutates nothing but its own scratch — every effect is returned in the
// Outcome. peers may be nil (no P2P channel); srv may be nil (no server
// connectivity — the best available answer is returned with Source
// SolvedUncertain, mirroring core.SENN).
func (r *Resolver) Resolve(req Request, ps PeerSource, srv Server) Outcome {
	q, k := req.Q, req.K
	res := Outcome{}

	// Gather shareable cached results: the host's own cache first (the
	// local-cache check of §4.1), then every peer within transmission
	// range. The own entry aliases the cache's storage (cache.Cache.Entry);
	// it is read only inside this call — verification copies the POIs it
	// keeps into the heap, and the staged write lives in poiArena — so the
	// commit that overwrites the entry in place cannot reach it.
	peers := r.peers[:0]
	if req.Cache != nil {
		if ent, ok := req.Cache.Entry(); ok {
			peers = append(peers, ent)
		}
	}
	if ps != nil {
		peers, res.Msgs, res.Bytes = ps.Gather(q, peers)
	}
	r.peers = peers[:0]

	// Algorithm 1 over the gathered peer data. The heap is sized at
	// max(k, C_Size) rather than k: the query itself needs k certain
	// objects, but cache policy 1 stores *all* the certain nearest
	// neighbors of the most recent query — the full certified set is still
	// an exact distance prefix (every POI closer than a certified one is
	// itself certified), so it is a valid PeerCache and keeps the shared
	// caches from degrading to the last query's k.
	heapK := k
	if req.Cache != nil {
		if c := req.Cache.Capacity(); c > heapK {
			heapK = c
		}
	}
	h := r.heap
	h.Reset(heapK)
	var single bool
	res.PeersUsed, single = r.verify.VerifyPeers(q, k, peers, h)
	if h.NumCertain() >= k {
		res.Src = core.SolvedByMultiPeer
		if single {
			res.Src = core.SolvedBySinglePeer
		}
		// CertainView aliases the heap scratch; the arena copy made for the
		// staged write is what outlives this call.
		certain := h.CertainView()
		res.Write = r.stageResult(q, certain)
		if req.NeedAnswer {
			res.Answer = append([]core.Candidate(nil), certain[:k]...)
		}
		return res
	}
	if req.AcceptUncertain && h.Len() >= k || srv == nil {
		res.Src = core.SolvedUncertain
		// Uncertain results are not exact prefixes: only the certain prefix
		// may enter the cache.
		res.Write = r.stageResult(q, h.CertainView())
		if req.NeedAnswer {
			entries := h.Entries()
			if len(entries) > k {
				entries = entries[:k]
			}
			res.Answer = entries
		}
		return res
	}

	// Server fallback with the §3.3 pruning bounds. Per cache policy 2 the
	// host tops the request up to its cache capacity. The upper bound — the
	// k-th smallest distance in H — stays in force: it guarantees the top-k
	// answer is complete, while letting the EINN search truncate the
	// opportunistic cache refill early; the refill then holds every POI out
	// to the bound, which is still an exact prefix and therefore a valid
	// PeerCache.
	bounds := h.Bounds()
	bounds.HasUpper = false
	if ub, ok := h.UpperBoundFor(k); ok {
		bounds.Upper = ub
		bounds.HasUpper = true
	}
	certain := h.CertainView()
	fetchCount := heapK - len(certain)
	fetched, pages, err := srv.KNNInto(q, fetchCount, bounds, r.fetched)
	r.fetched = fetched
	res.Src = core.SolvedByServer
	res.Pages = pages
	if err != nil {
		res.Err = err
		return res
	}

	full := r.full[:0]
	full = append(full, certain...)
	for _, poi := range fetched {
		full = append(full, core.Candidate{POI: poi, Dist: q.Dist(poi.Loc), Certain: true})
	}
	r.full = full
	res.Write = r.stageResult(q, full)
	if req.NeedAnswer {
		nk := k
		if nk > len(full) {
			nk = len(full)
		}
		res.Answer = append([]core.Candidate(nil), full[:nk]...)
	}
	return res
}

// stageResult prepares cache policy 1 as a deferred write: keep the query
// location and the certain NNs of the most recent query. An empty certain
// set stages nothing — the previous entry is kept rather than caching
// nothing.
//
// The POI copy lives in the resolver's arena, which the caller recycles via
// ResetArena once the staged writes have been applied. A mid-batch arena
// growth leaves earlier slices pointing at the retired backing array, which
// stays valid (and unreused) until the reset.
func (r *Resolver) stageResult(q geom.Point, certain []core.Candidate) cache.StagedWrite {
	if len(certain) == 0 {
		return cache.StagedWrite{}
	}
	base := len(r.poiArena)
	for _, c := range certain {
		r.poiArena = append(r.poiArena, c.POI)
	}
	return cache.Stage(q, r.poiArena[base:len(r.poiArena):len(r.poiArena)])
}
