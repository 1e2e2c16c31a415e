package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cache"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/wire"
)

// The traced run of a served workload. Layers are measured from outside:
// spans around the harness's own calls into the client, counter deltas at
// the same boundaries, and replay probes — the harness knows each sampled
// query's position, the driver's own cache entry and the neighbourhood's
// peer entries, so it re-runs the exact inputs through each layer's public
// function in-process and times it. Spans inside the daemon are a later
// change; this is the instrument that will validate them.

type spanKind uint8

const (
	spanOp spanKind = iota
	spanMove
	spanQuery
	spanRange
	spanRelay
)

var spanName = [...]string{"op", "move", "query", "range", "relay.exchange"}
var spanParent = [...]string{"", "op", "op", "op", "query"}

// span is one timed interval of one op; spans of an op share its id, and a
// kind's parent is fixed (spanParent).
type span struct {
	kind       spanKind
	op         uint32
	start, end int64 // ns since the window opened
}

// replayInput is the input of one sampled kNN query.
type replayInput struct {
	q      geom.Point
	k      int
	hood   int
	own    core.PeerCache
	hasOwn bool
}

// tracer is one driver's in-memory trace of one window, preallocated so
// recording allocates nothing.
type tracer struct {
	epoch   time.Time
	op      uint32
	spans   []span
	dropped int64
	inputs  []replayInput
	arena   []core.POI
}

const (
	maxSpans        = 600000
	maxReplayInputs = 4096
)

func newTracer(ops int) *tracer {
	n := 4 * ops
	if n > maxSpans {
		n = maxSpans
	}
	return &tracer{
		spans:  make([]span, 0, n),
		inputs: make([]replayInput, 0, maxReplayInputs),
		arena:  make([]core.POI, 0, maxReplayInputs*32),
	}
}

func (t *tracer) add(kind spanKind, op uint32, start, end int64) {
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{kind, op, start, end})
}

// sampleInputs records what the next kNN query of dr will see: its position
// and the driver's own cache entry as it stands before the query.
func (t *tracer) sampleInputs(dr *driver, pos geom.Point, k int) {
	if len(t.inputs) == cap(t.inputs) {
		return
	}
	in := replayInput{q: pos, k: k, hood: dr.hood()}
	if ent, ok := dr.cl.Cache().Entry(); ok && len(t.arena)+len(ent.Neighbors) <= cap(t.arena) {
		base := len(t.arena)
		t.arena = append(t.arena, ent.Neighbors...)
		in.own = core.PeerCache{QueryLoc: ent.QueryLoc, Neighbors: t.arena[base:len(t.arena):len(t.arena)]}
		in.hasOwn = true
	}
	t.inputs = append(t.inputs, in)
}

// durations returns the sorted durations of one span kind over all tracers.
func spanDurations(recs []*recorder, kind spanKind) []int64 {
	var out []int64
	for _, r := range recs {
		for _, s := range r.tr.spans {
			if s.kind == kind {
				out = append(out, s.end-s.start)
			}
		}
	}
	sortInt64(out)
	return out
}

// writeSpans writes every span kept in memory as CSV, one file per run.
func writeSpans(path string, recs []*recorder) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "driver,op,span,parent,start_ns,end_ns")
	for d, r := range recs {
		for _, s := range r.tr.spans {
			fmt.Fprintf(w, "%d,%d,%s,%s,%d,%d\n", d, s.op, spanName[s.kind], spanParent[s.kind], s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runTraced measures an untraced reference window, then a traced window of
// the same length on the same connections, then the idle-connection and
// replay probes, and prints the layer budget.
func (fx *fixture) runTraced(env *benchEnv, res *result, window time.Duration) error {
	window /= 4 // two windows plus the probes must fit the run's time budget

	ref := fx.newRecorders(window, false)
	before, err := fx.snapshot()
	if err != nil {
		return err
	}
	fx.runPhase(window, ref)
	mid, err := fx.snapshot()
	if err != nil {
		return err
	}
	traced := fx.newRecorders(window, true)
	fx.runPhase(window, traced)
	after, err := fx.snapshot()
	if err != nil {
		return err
	}
	wRef, wTr := summarize(ref, window), summarize(traced, window)
	fx.reportWindow(res, wRef, before, mid)
	res.Attempted += wTr.ops
	fx.reportCounts(res)
	fx.checkIsolation(res, before, after)
	res.set("trace.overhead_pct", 100*(wRef.qps-wTr.qps)/wRef.qps)

	// Counter deltas over the traced window.
	d := func(f func(serve.Stats) int64) float64 { return float64(f(after.stats) - f(mid.stats)) }
	per := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	requests := d(func(s serve.Stats) int64 { return s.RelayRequests })
	positions := d(func(s serve.Stats) int64 { return s.Positions })
	probes := float64(after.probes - mid.probes)
	knn := float64(after.client.Queries - mid.client.Queries)
	serverSolved := float64(after.client.ServerSolved - mid.client.ServerSolved)
	ops := float64(wTr.ops)
	answers := d(func(s serve.Stats) int64 { return s.Queries }) + d(func(s serve.Stats) int64 { return s.RangeQueries })
	res.set("serve.ws.frames_per_query", per(positions+2*answers+2*requests+2*probes, ops))
	res.set("serve.relay.probes_per_request", per(probes, requests))
	res.set("serve.relay.solved_per_exchange", per(float64(after.client.PeerSolved-mid.client.PeerSolved), requests))
	res.set("serve.relay.timeouts", d(func(s serve.Stats) int64 { return s.RelayTimeouts }))
	res.set("serve.relay.unknown_replies", d(func(s serve.Stats) int64 { return s.RelayUnknownReplies }))
	res.set("serve.relay.rejected", d(func(s serve.Stats) int64 { return s.RelayRejected }))
	res.set("serve.dir.cells_scanned_per_request", per(d(func(s serve.Stats) int64 { return s.DirCellsScanned }), requests))
	res.set("serve.dir.rejected_per_request", per(d(func(s serve.Stats) int64 { return s.DirCandRejected }), requests))
	res.set("serve.dir.patch_ops_per_position", per(d(func(s serve.Stats) int64 { return s.DirPatchOps }), positions))
	res.set("cache.own_hit_share", 100*per(float64(after.client.OwnCacheSolved-mid.client.OwnCacheSolved), knn))
	var srcs [4]int64
	for _, r := range traced {
		for i, n := range r.srcs {
			srcs[i] += n
		}
	}
	res.set("core.single_share", 100*per(float64(srcs[core.SolvedBySinglePeer]), knn))
	res.set("core.multi_share", 100*per(float64(srcs[core.SolvedByMultiPeer]), knn))
	serverShare := per(serverSolved, knn)
	exchangesPerQuery := per(requests, knn)

	// Relay frame volume per kNN query, at the relay's own codec sizes.
	sharesFwd := d(func(s serve.Stats) int64 { return s.RelaySharesFwd })
	perShare := wire.PeerSharesSize([]int{fx.spec.csize}) - wire.PeerSharesSize(nil)
	relayBytes := requests*float64(wire.PeerRequestSize+wire.PeerSharesSize(nil)) +
		probes*float64(wire.PeerProbeSize+wire.ShareReplySize(fx.spec.csize)) +
		sharesFwd*float64(perShare)
	res.set("wire.relay_bytes_per_query", per(relayBytes, knn))

	exch := spanDurations(traced, spanRelay)
	res.setN("serve.relay.exchange_p50_us", us(percentile(exch, 50)), len(exch))
	res.setN("serve.relay.exchange_p99_us", us(percentile(exch, 99)), len(exch))

	if err := fx.idleProbes(res); err != nil {
		return err
	}
	var inputs []replayInput
	var dropped int64
	for _, r := range traced {
		inputs = append(inputs, r.tr.inputs...)
		dropped += r.tr.dropped
	}
	if err := fx.replayProbes(res, inputs); err != nil {
		return err
	}

	// The layer budget of one kNN query, from outside in. The blocking chain
	// on a relayed query is scan -> parallel probe round trips -> aggregate
	// -> verify, and a query that falls through adds one server round trip.
	queries := spanDurations(traced, spanQuery)
	p50 := us(percentile(queries, 50))
	lines := []struct {
		layer string
		us    float64
	}{
		{"serve.relay (+serve.dir)", res.get("serve.relay.exchange_p50_us") * exchangesPerQuery},
		{"client+core+cache", res.get("client.resolve_ns") / 1e3},
		{"wire (server path)", res.get("wire.query_answer_ns") / 1e3 * serverShare},
		{"serve.ws", res.get("serve.ws.rtt_floor_us") * serverShare},
		{"nn+rtree", res.get("nn.knn_ns") / 1e3 * serverShare},
	}
	sum := 0.0
	res.notef("layer budget of one kNN query (traced window, n=%d, p50 %.1f us):", len(queries), p50)
	for _, l := range lines {
		sum += l.us
		res.notef("  %-26s %9.2f us  %5.1f%%", l.layer, l.us, 100*l.us/p50)
	}
	res.set("budget.unattributed_us", p50-sum)
	res.notef("  %-26s %9.2f us  %5.1f%%  (syscalls, netpoll wake-ups, scheduler, GC)", "unattributed", p50-sum, 100*(p50-sum)/p50)
	if fx.spec.sharing {
		res.notef("  inside the exchange: fixed cost %.1f us, aggregate encode %.1f us + decode %.1f us, %d share replies x %.2f us decode",
			res.get("serve.relay.zero_peer_exchange_us"), res.get("wire.shares_encode_ns")/1e3,
			res.get("wire.shares_decode_ns")/1e3, fx.spec.hoodPeers, res.get("wire.share_reply_decode_ns")/1e3)
	}
	if dropped > 0 {
		res.notef("trace: %d spans dropped (buffer full)", dropped)
	}
	out := filepath.Join(env.outDir, fmt.Sprintf("%s-seed%d.spans.csv", fx.spec.name, res.Seed))
	if err := writeSpans(out, traced); err != nil {
		return err
	}
	res.notef("trace: spans written to %s", out)
	return nil
}

// idleProbes measures, on connections nobody else is using, the bare
// forwarding cost at the smallest message (a radius-0 Range round trip) and
// the relay's fixed cost (an exchange from an empty corner of the area).
func (fx *fixture) idleProbes(res *result) error {
	const rounds = 2000
	corner := geom.Pt(fx.spec.store.width*0.004, fx.spec.store.width*0.004)
	ws, err := fx.d.dial()
	if err != nil {
		return err
	}
	defer ws.Close()
	cl := serve.NewSENNClient(ws, fx.spec.csize, fx.spec.txRange, fx.spec.sharing)
	if err := cl.Move(corner); err != nil {
		return err
	}
	rtt := make([]int64, 0, rounds)
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		if _, err := cl.Range(0); err != nil {
			return err
		}
		rtt = append(rtt, time.Since(t0).Nanoseconds())
	}
	sortInt64(rtt)
	res.setN("serve.ws.rtt_floor_us", us(percentile(rtt, 50)), rounds)
	if !fx.spec.sharing {
		return nil
	}
	exch := make([]int64, 0, rounds)
	cl.SetRelayObserver(func(d time.Duration) { exch = append(exch, d.Nanoseconds()) })
	for i := 0; i < rounds; i++ {
		if _, _, err := cl.Query(fx.spec.k); err != nil {
			return err
		}
	}
	if cl.Stats().SharesReceived != 0 {
		return fmt.Errorf("zero-peer probe at %v received shares: the corner is not empty", corner)
	}
	sortInt64(exch)
	res.setN("serve.relay.zero_peer_exchange_us", us(percentile(exch, 50)), len(exch))
	return nil
}

// memPeers is an in-memory client.PeerSource over a fixed peer set, with the
// relay client's air-interface accounting.
type memPeers struct{ entries []core.PeerCache }

func (m *memPeers) Gather(q geom.Point, dst []core.PeerCache) ([]core.PeerCache, int64, int64) {
	msgs, bytes := int64(1), int64(wire.CacheRequestSize)
	for _, e := range m.entries {
		msgs++
		bytes += int64(wire.CacheShareSize(len(e.Neighbors)))
	}
	return append(dst, m.entries...), msgs, bytes
}

// memServer is an in-memory client.Server over the harness's own copy of the
// index; it times its own calls so the resolver's time can exclude them.
type memServer struct {
	sq      *sim.SnapshotQuerier
	spent   time.Duration
	knnNs   []float64
	bounded int
}

func (m *memServer) KNNInto(q geom.Point, k int, b nn.Bounds, dst []core.POI) ([]core.POI, int64, error) {
	t0 := time.Now()
	out, pages := m.sq.KNN(q, k, b, dst)
	d := time.Since(t0)
	m.spent += d
	m.knnNs = append(m.knnNs, float64(d.Nanoseconds()))
	if b.HasLower || b.HasUpper {
		m.bounded++
	}
	return out, pages, nil
}

// replayProbes re-runs the sampled queries' exact inputs through each
// layer's public function in-process.
func (fx *fixture) replayProbes(res *result, inputs []replayInput) error {
	t0 := time.Now()
	info, pois, err := serve.ReadStore(fx.store)
	if err != nil {
		return err
	}
	res.set("serve.store.read_s", time.Since(t0).Seconds())
	t0 = time.Now()
	mod := sim.NewServerModule(pois, info.Fanout)
	res.set("rtree.build_s", time.Since(t0).Seconds())
	if len(inputs) == 0 {
		return fmt.Errorf("traced window sampled no queries to replay")
	}
	srv := &memServer{sq: sim.NewSnapshotQuerier(mod)}
	peersOf := func(in replayInput) *memPeers {
		if in.hood < 0 {
			return nil
		}
		return &memPeers{entries: fx.hoodEntries[in.hood]}
	}

	// client: Resolver.Resolve, server time subtracted. The first pass warms
	// the resolver's scratch.
	r := client.NewResolver()
	var resolveNs []float64
	for pass := 0; pass < 2; pass++ {
		resolveNs, srv.knnNs, srv.bounded = resolveNs[:0], srv.knnNs[:0], 0
		for _, in := range inputs {
			c := cache.New(fx.spec.csize)
			if in.hasOwn {
				c.Store(in.own.QueryLoc, in.own.Neighbors)
			}
			var ps client.PeerSource
			if m := peersOf(in); m != nil {
				ps = m
			}
			r.ResetArena()
			srv.spent = 0
			t0 := time.Now()
			out := r.Resolve(client.Request{Q: in.q, K: in.k, Cache: c, NeedAnswer: true}, ps, srv)
			d := time.Since(t0) - srv.spent
			if out.Err != nil {
				return out.Err
			}
			resolveNs = append(resolveNs, float64(d.Nanoseconds()))
		}
	}
	res.setN("client.resolve_ns", median(resolveNs), len(resolveNs))
	if len(srv.knnNs) > 0 {
		res.setN("nn.knn_ns", median(srv.knnNs), len(srv.knnNs))
		res.set("nn.bounded_share", 100*float64(srv.bounded)/float64(len(srv.knnNs)))
	}

	// core: multi-peer verification over the own entry plus the peer set.
	var vs core.VerifierScratch
	h := core.NewResultHeap(fx.spec.csize)
	var peers []core.PeerCache
	verifyNs := make([]float64, 0, len(inputs))
	for pass := 0; pass < 2; pass++ {
		verifyNs = verifyNs[:0]
		for _, in := range inputs {
			peers = peers[:0]
			if in.hasOwn {
				peers = append(peers, in.own)
			}
			if in.hood >= 0 {
				peers = append(peers, fx.hoodEntries[in.hood]...)
			}
			h.Reset(fx.spec.csize)
			t0 := time.Now()
			vs.VerifyMultiPeer(in.q, peers, h)
			verifyNs = append(verifyNs, float64(time.Since(t0).Nanoseconds()))
		}
	}
	res.setN("core.verify_ns", median(verifyNs), len(verifyNs))

	// nn/rtree: the range path at the sampled positions.
	if fx.spec.rangeEvery > 0 {
		hits := 0
		rangeNs := timeCalls(len(inputs), 1, func(i int) {
			hits += len(srv.sq.Range(inputs[i].q, fx.spec.rangeRadius))
		})
		res.setN("nn.range_ns", rangeNs, len(inputs))
		res.set("rtree.range_hits", float64(hits)/float64(len(inputs)))
	}

	// wire: the server path's query/answer pair at the size the workload
	// ships (policy 2 tops the request up to the cache capacity), and the
	// relay's aggregate and share-reply frames on the real peer set.
	in := inputs[0]
	ans, pages := srv.sq.KNN(in.q, fx.spec.csize, nn.Bounds{}, nil)
	var buf []byte
	res.set("wire.query_answer_ns", timeCalls(20000, 100, func(i int) {
		buf = wire.AppendQuery(buf[:0], wire.Query{ReqID: uint32(i), K: fx.spec.csize, Loc: in.q})
		if _, err := wire.Decode(buf); err != nil {
			panic(err)
		}
		buf = wire.AppendAnswer(buf[:0], wire.Answer{ReqID: uint32(i), Pages: pages,
			Cache: core.PeerCache{QueryLoc: in.q, Neighbors: ans}})
		if _, err := wire.Decode(buf); err != nil {
			panic(err)
		}
	}))
	if len(fx.hoodEntries) > 0 {
		ps := wire.PeerShares{ReqID: 1, PeersInRange: len(fx.hoodEntries[0]), Shares: fx.hoodEntries[0]}
		res.set("wire.shares_encode_ns", timeCalls(20000, 100, func(int) {
			buf = wire.AppendPeerShares(buf[:0], ps)
		}))
		var sc wire.SharesScratch
		res.set("wire.shares_decode_ns", timeCalls(20000, 100, func(int) {
			if _, err := wire.DecodePeerSharesInto(buf, &sc); err != nil {
				panic(err)
			}
		}))
		reply := wire.AppendShareReply(nil, 7, true, fx.hoodEntries[0][0])
		res.set("wire.share_reply_decode_ns", timeCalls(20000, 100, func(int) {
			if _, err := wire.Decode(reply); err != nil {
				panic(err)
			}
		}))
	}
	return nil
}
