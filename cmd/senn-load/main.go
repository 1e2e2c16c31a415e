// Command senn-load drives a senn-serverd instance with N concurrent mobile
// sessions. Each session walks the service area with random-waypoint
// movement (internal/mobility), streams position updates, and issues kNN
// queries (plus an occasional range query), measuring per-query round-trip
// latency. At the end it prints a JSON report: sustained queries/sec and
// p50/p99/p999 latency, shaped as a benchjson Document so the repo's
// benchmark gate can ingest it, plus a "load" summary block with raw counts
// that CI gates on (zero errors, nonzero throughput).
//
// With -sweep "64,256,1024" it instead runs the same load once per session
// count and emits one combined JSON document whose "sweep" array holds a
// summary per point — the scaling curve of the daemon's relay fan-out in a
// single run. When -share is on, the report also carries relay-exchange
// latency percentiles (PeerRequest sent → PeerShares received), the
// end-to-end measure of the server's in-range sweep.
//
// Usage:
//
//	senn-load -addr 127.0.0.1:8046 -sessions 64 -duration 15s -out load.json
//	senn-load -addr 127.0.0.1:8046 -sweep 64,256,1024 -duration 10s
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/serve"
)

type config struct {
	addr        string
	sessions    int
	duration    time.Duration
	k           int
	rangeEvery  int
	rangeRadius float64
	share       bool
	csize       int
	txRange     float64
	seed        int64
	out         string
	sweep       string
}

// result aggregates one session's outcome.
type result struct {
	queries        int64
	errors         int64
	latencies      []time.Duration
	relayLatencies []time.Duration
	stats          serve.ClientStats
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "127.0.0.1:8046", "senn-serverd address")
	flag.IntVar(&cfg.sessions, "sessions", 64, "concurrent sessions")
	flag.DurationVar(&cfg.duration, "duration", 15*time.Second, "run length")
	flag.IntVar(&cfg.k, "k", 5, "neighbors per kNN query")
	flag.IntVar(&cfg.rangeEvery, "range-every", 10, "issue a range query every Nth query (0 = never)")
	flag.Float64Var(&cfg.rangeRadius, "range-radius", 300, "range query radius (m)")
	flag.BoolVar(&cfg.share, "share", true, "exchange peer caches through the daemon relay before falling back to the server")
	flag.IntVar(&cfg.csize, "csize", 16, "local cache capacity C_Size per session")
	flag.Float64Var(&cfg.txRange, "txrange", 1000, "transmission radius sent with each peer request (m)")
	flag.Int64Var(&cfg.seed, "seed", 1, "movement/workload seed")
	flag.StringVar(&cfg.out, "out", "", "write the JSON report here too (stdout always)")
	flag.StringVar(&cfg.sweep, "sweep", "", "comma-separated session counts: run once per count, emit a combined sweep report (overrides -sessions)")
	flag.Parse()

	// The sessions' sockets would otherwise grow this process's descriptor
	// table by doubling, one kernel wait at each of 64, 128, 256, … inside
	// the ramp (DESIGN §16, "Connections").
	if _, err := serve.ReserveDescriptors(); err != nil {
		fmt.Fprintln(os.Stderr, "senn-load: descriptor table left to grow on demand:", err)
	}

	var err error
	if cfg.sweep != "" {
		err = runSweep(cfg)
	} else {
		err = runSingle(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "senn-load:", err)
		os.Exit(1)
	}
}

func runSingle(cfg config) error {
	doc, err := run(cfg)
	if err != nil {
		return err
	}
	if err := emit(doc, cfg.out); err != nil {
		return err
	}
	return gateAndNarrate(cfg, doc.Load)
}

// runSweep repeats the load once per requested session count and emits one
// document: a "sweep" array of per-point summaries plus session-suffixed
// benchjson entries, so the scaling curve lands in a single artifact.
func runSweep(cfg config) error {
	var counts []int
	for _, f := range strings.Split(cfg.sweep, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return fmt.Errorf("bad -sweep point %q", f)
		}
		counts = append(counts, n)
	}
	doc := struct {
		Benchmarks []benchmark   `json:"benchmarks"`
		Sweep      []loadSummary `json:"sweep"`
	}{}
	for _, n := range counts {
		pt := cfg
		pt.sessions = n
		fmt.Fprintf(os.Stderr, "senn-load: sweep point sessions=%d\n", n)
		one, err := run(pt)
		if err != nil {
			return fmt.Errorf("sessions=%d: %w", n, err)
		}
		suffix := "/sessions=" + strconv.Itoa(n)
		for _, b := range one.Benchmarks {
			b.Name += suffix
			doc.Benchmarks = append(doc.Benchmarks, b)
		}
		doc.Sweep = append(doc.Sweep, one.Load)
		if err := gateAndNarrate(pt, one.Load); err != nil {
			return err
		}
	}
	return emit(doc, cfg.out)
}

func emit(doc any, out string) error {
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	os.Stdout.Write(blob)
	if out != "" {
		if err := os.WriteFile(out, blob, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func run(cfg config) (loadDoc, error) {
	bounds, err := fetchBounds(cfg.addr)
	if err != nil {
		return loadDoc{}, fmt.Errorf("fetch service bounds: %w", err)
	}

	// One waypoint engine for the whole fleet; each session owns slot i.
	// Walking speed with short pauses, trips across a tenth of the area.
	diag := bounds.Max.X - bounds.Min.X
	wp := mobility.NewWaypoints(bounds, 1.5, 5, diag/10, cfg.sessions)
	var seedRNG mobility.SplitMix64 = mobility.SplitMix64(cfg.seed)

	stop := make(chan struct{})
	results := make([]result, cfg.sessions)
	var inFlight sync.WaitGroup
	var dialErrors atomic.Int64

	start := time.Now()
	for i := 0; i < cfg.sessions; i++ {
		startPos := geom.Pt(
			bounds.Min.X+seedRNG.Float64()*(bounds.Max.X-bounds.Min.X),
			bounds.Min.Y+seedRNG.Float64()*(bounds.Max.Y-bounds.Min.Y),
		)
		wp.Seed(i, startPos, seedRNG.Uint64())
		inFlight.Add(1)
		go func(i int, pos geom.Point) {
			defer inFlight.Done()
			if err := session(cfg, i, pos, wp, stop, &results[i]); err != nil {
				dialErrors.Add(1)
				results[i].errors++
			}
		}(i, startPos)
	}
	time.AfterFunc(cfg.duration, func() { close(stop) })
	inFlight.Wait()
	elapsed := time.Since(start)

	return buildDoc(cfg, results, elapsed, dialErrors.Load()), nil
}

// fetchBounds asks the server's /v1/stats for the service area.
func fetchBounds(addr string) (geom.Rect, error) {
	resp, err := http.Get("http://" + addr + "/v1/stats")
	if err != nil {
		return geom.Rect{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return geom.Rect{}, fmt.Errorf("stats: status %d", resp.StatusCode)
	}
	var st serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return geom.Rect{}, err
	}
	b := geom.Rect{
		Min: geom.Pt(st.BoundsMinX, st.BoundsMinY),
		Max: geom.Pt(st.BoundsMaxX, st.BoundsMaxY),
	}
	if b.Max.X <= b.Min.X || b.Max.Y <= b.Min.Y {
		return geom.Rect{}, fmt.Errorf("stats: degenerate bounds %+v", b)
	}
	return b, nil
}

// session runs one mobile SENN client until stop closes: move, report
// position, resolve a query (relay exchange, local verification, server
// fallback — the full Algorithm-1 pipeline of internal/client), time the
// round trip. Movement advances in virtual 1-second steps per query — a
// query rate of one per simulated second, issued as fast as resolution
// completes. With -share=false the relay exchange is skipped but the local
// cache still serves — the paper's no-sharing baseline.
func session(cfg config, slot int, pos geom.Point, wp *mobility.Waypoints, stop <-chan struct{}, res *result) error {
	token, err := newSession(cfg.addr)
	if err != nil {
		return err
	}
	ws, err := serve.DialWS("ws://" + cfg.addr + "/v1/ws?session=" + token)
	if err != nil {
		return err
	}
	defer ws.Close()
	cl := serve.NewSENNClient(ws, cfg.csize, cfg.txRange, cfg.share)
	cl.SetRelayObserver(func(d time.Duration) {
		res.relayLatencies = append(res.relayLatencies, d)
	})
	defer func() { res.stats = cl.Stats() }()

	n := uint32(0)
	for {
		select {
		case <-stop:
			return nil
		default:
		}
		pos = wp.Advance(slot, pos, 1)
		if err := cl.Move(pos); err != nil {
			res.errors++
			return nil
		}
		n++
		t0 := time.Now()
		if cfg.rangeEvery > 0 && n%uint32(cfg.rangeEvery) == 0 {
			_, err = cl.Range(cfg.rangeRadius)
		} else {
			_, _, err = cl.Query(cfg.k)
		}
		if err != nil {
			// A close while the run is winding down is orderly; anything
			// mid-run is an error.
			select {
			case <-stop:
				return nil
			default:
				res.errors++
				return nil
			}
		}
		res.queries++
		res.latencies = append(res.latencies, time.Since(t0))
	}
}

func newSession(addr string) (string, error) {
	resp, err := http.Post("http://"+addr+"/v1/session", "application/json", nil)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("session: status %d", resp.StatusCode)
	}
	var doc struct {
		Session string `json:"session"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return "", err
	}
	return doc.Session, nil
}

// percentile returns the nearest-rank percentile of sorted latencies.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p/100*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// benchmark mirrors benchjson's Benchmark JSON shape.
type benchmark struct {
	Name    string  `json:"name"`
	Runs    int     `json:"runs"`
	NsPerOp float64 `json:"ns_per_op"`
}

type loadSummary struct {
	Sessions      int     `json:"sessions"`
	DurationSec   float64 `json:"duration_sec"`
	Queries       int64   `json:"queries"`
	Errors        int64   `json:"errors"`
	DialErrors    int64   `json:"dial_errors"`
	QueriesPerSec float64 `json:"queries_per_sec"`
	P50Ms         float64 `json:"p50_ms"`
	P99Ms         float64 `json:"p99_ms"`
	P999Ms        float64 `json:"p999_ms"`
	// Sharing columns (kNN queries only; range queries bypass the cache).
	// peer_solved counts kNN queries certified without the server;
	// cache_hits is the subset answered by the session's own cache alone.
	Sharing            bool    `json:"sharing"`
	KNNQueries         int64   `json:"knn_queries"`
	PeerSolved         int64   `json:"peer_solved"`
	PeerSolvedFraction float64 `json:"peer_solved_fraction"`
	CacheHits          int64   `json:"cache_hits"`
	CacheHitRate       float64 `json:"cache_hit_rate"`
	ServerSolved       int64   `json:"server_solved"`
	SharesReceived     int64   `json:"shares_received"`
	PeerBytes          int64   `json:"peer_bytes"`
	// Relay-exchange latency percentiles (PeerRequest written → PeerShares
	// decoded): the end-to-end cost of the daemon's in-range sweep plus the
	// slowest probed peer. Zero when sharing is off.
	RelayExchanges int64   `json:"relay_exchanges"`
	RelayP50Ms     float64 `json:"relay_p50_ms"`
	RelayP99Ms     float64 `json:"relay_p99_ms"`
	RelayP999Ms    float64 `json:"relay_p999_ms"`
}

// loadDoc is one run's report: benchjson-shaped entries plus the raw "load"
// block CI gates on.
type loadDoc struct {
	Benchmarks []benchmark `json:"benchmarks"`
	Load       loadSummary `json:"load"`
}

func buildDoc(cfg config, results []result, elapsed time.Duration, dialErrors int64) loadDoc {
	var all, relay []time.Duration
	var queries, errs int64
	var cs serve.ClientStats
	for i := range results {
		queries += results[i].queries
		errs += results[i].errors
		all = append(all, results[i].latencies...)
		relay = append(relay, results[i].relayLatencies...)
		st := results[i].stats
		cs.Queries += st.Queries
		cs.PeerSolved += st.PeerSolved
		cs.OwnCacheSolved += st.OwnCacheSolved
		cs.ServerSolved += st.ServerSolved
		cs.SharesReceived += st.SharesReceived
		cs.PeerBytes += st.PeerBytes
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	sort.Slice(relay, func(i, j int) bool { return relay[i] < relay[j] })

	p50 := percentile(all, 50)
	p99 := percentile(all, 99)
	p999 := percentile(all, 99.9)
	qps := float64(queries) / elapsed.Seconds()

	doc := loadDoc{
		Benchmarks: []benchmark{
			{Name: "ServeQuery/p50", Runs: int(queries), NsPerOp: float64(p50.Nanoseconds())},
			{Name: "ServeQuery/p99", Runs: int(queries), NsPerOp: float64(p99.Nanoseconds())},
			{Name: "ServeQuery/p999", Runs: int(queries), NsPerOp: float64(p999.Nanoseconds())},
		},
		Load: loadSummary{
			Sessions:       cfg.sessions,
			DurationSec:    elapsed.Seconds(),
			Queries:        queries,
			Errors:         errs,
			DialErrors:     dialErrors,
			QueriesPerSec:  qps,
			P50Ms:          float64(p50) / float64(time.Millisecond),
			P99Ms:          float64(p99) / float64(time.Millisecond),
			P999Ms:         float64(p999) / float64(time.Millisecond),
			Sharing:        cfg.share,
			KNNQueries:     cs.Queries,
			PeerSolved:     cs.PeerSolved,
			CacheHits:      cs.OwnCacheSolved,
			ServerSolved:   cs.ServerSolved,
			SharesReceived: cs.SharesReceived,
			PeerBytes:      cs.PeerBytes,
			RelayExchanges: int64(len(relay)),
		},
	}
	if cs.Queries > 0 {
		doc.Load.PeerSolvedFraction = float64(cs.PeerSolved) / float64(cs.Queries)
		doc.Load.CacheHitRate = float64(cs.OwnCacheSolved) / float64(cs.Queries)
	}
	if len(relay) > 0 {
		rp50, rp99, rp999 := percentile(relay, 50), percentile(relay, 99), percentile(relay, 99.9)
		doc.Load.RelayP50Ms = float64(rp50) / float64(time.Millisecond)
		doc.Load.RelayP99Ms = float64(rp99) / float64(time.Millisecond)
		doc.Load.RelayP999Ms = float64(rp999) / float64(time.Millisecond)
		doc.Benchmarks = append(doc.Benchmarks,
			benchmark{Name: "RelayExchange/p50", Runs: len(relay), NsPerOp: float64(rp50.Nanoseconds())},
			benchmark{Name: "RelayExchange/p99", Runs: len(relay), NsPerOp: float64(rp99.Nanoseconds())},
			benchmark{Name: "RelayExchange/p999", Runs: len(relay), NsPerOp: float64(rp999.Nanoseconds())},
		)
	}
	return doc
}

// gateAndNarrate enforces the run-level invariants (no session errors, some
// progress) and prints the human summary to stderr.
func gateAndNarrate(cfg config, ld loadSummary) error {
	if ld.Errors > 0 || ld.DialErrors > 0 {
		return fmt.Errorf("%d session errors (%d dial)", ld.Errors, ld.DialErrors)
	}
	if ld.Queries == 0 {
		return fmt.Errorf("no queries completed")
	}
	fmt.Fprintf(os.Stderr, "senn-load: %d sessions, %d queries in %.1fs (%.0f q/s), p50 %.2fms p99 %.2fms p999 %.2fms\n",
		cfg.sessions, ld.Queries, ld.DurationSec, ld.QueriesPerSec, ld.P50Ms, ld.P99Ms, ld.P999Ms)
	if ld.KNNQueries > 0 {
		fmt.Fprintf(os.Stderr, "senn-load: sharing=%v peer-solved %d/%d (%.1f%%, own-cache %d), server %d, shares %d\n",
			cfg.share, ld.PeerSolved, ld.KNNQueries, 100*ld.PeerSolvedFraction,
			ld.CacheHits, ld.ServerSolved, ld.SharesReceived)
	}
	if ld.RelayExchanges > 0 {
		fmt.Fprintf(os.Stderr, "senn-load: relay exchanges %d, p50 %.2fms p99 %.2fms p999 %.2fms\n",
			ld.RelayExchanges, ld.RelayP50Ms, ld.RelayP99Ms, ld.RelayP999Ms)
	}
	return nil
}
