// Command senn-load drives a senn-serverd instance with N concurrent mobile
// sessions. Each session walks the service area with random-waypoint
// movement (internal/mobility), streams position updates, and issues kNN
// queries (k = 5; every tenth query a 300 m range query instead), measuring
// per-query round-trip latency. At the end it prints a JSON report whose
// "load" block holds sustained queries/sec, p50/p99/p999 latency and the raw
// counts CI gates on (zero errors, nonzero throughput). When -share is on,
// the report also carries relay-exchange latency percentiles (PeerRequest
// sent → PeerShares received), the end-to-end measure of the server's
// in-range sweep.
//
// Flags: -addr, -sessions, -duration, -share, -txrange (the radius sent
// with each peer request) and -out (a copy of the report). Each session
// keeps a 16-entry cache; the workload seed is fixed. A scaling curve over
// session counts is one run per count against the same daemon.
//
// Usage:
//
//	senn-load -addr 127.0.0.1:8046 -sessions 64 -duration 15s -out load.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/serve"
)

// The workload every session runs.
const (
	k           = 5   // neighbors per kNN query
	rangeEvery  = 10  // every tenth query is a range query
	rangeRadius = 300 // range query radius (m)
	cacheSize   = 16  // C_Size per session
	seed        = 1   // movement and workload seed
)

type config struct {
	addr     string
	sessions int
	duration time.Duration
	share    bool
	txRange  float64
	out      string
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
	flag.BoolVar(&cfg.share, "share", true, "exchange peer caches through the daemon relay before falling back to the server")
	flag.Float64Var(&cfg.txRange, "txrange", 1000, "transmission radius sent with each peer request (m)")
	flag.StringVar(&cfg.out, "out", "", "write the JSON report here too (stdout always)")
	flag.Parse()

	// The sessions' sockets would otherwise grow this process's descriptor
	// table by doubling, one kernel wait at each of 64, 128, 256, … inside
	// the ramp (DESIGN §16, "Connections").
	if _, err := serve.ReserveDescriptors(); err != nil {
		fmt.Fprintln(os.Stderr, "senn-load: descriptor table left to grow on demand:", err)
	}

	doc, err := run(cfg)
	if err == nil {
		err = emit(doc, cfg.out)
	}
	if err == nil {
		err = gateAndNarrate(cfg, doc.Load)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "senn-load:", err)
		os.Exit(1)
	}
}

func emit(doc loadDoc, out string) error {
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
	seedRNG := mobility.SplitMix64(seed)

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
	ws, err := serve.DialWS("ws://" + cfg.addr + "/v1/ws")
	if err != nil {
		return err
	}
	defer ws.Close()
	cl := serve.NewSENNClient(ws, cacheSize, cfg.txRange, cfg.share)
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
		if n%rangeEvery == 0 {
			_, err = cl.Range(rangeRadius)
		} else {
			_, _, err = cl.Query(k)
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

// percentile returns the nearest-rank percentile of sorted latencies: the
// ⌈p/100 · n⌉-th smallest. p·n is divided by 100 last so that exact ranks
// stay exact (99.9/100 · 1000 rounds up past 999 in floating point).
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted))/100)) - 1
	return sorted[min(max(rank, 0), len(sorted)-1)]
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

// loadDoc is one run's report: the "load" block CI gates on.
type loadDoc struct {
	Load loadSummary `json:"load"`
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

	ms := func(sorted []time.Duration, p float64) float64 {
		return float64(percentile(sorted, p)) / float64(time.Millisecond)
	}
	doc := loadDoc{
		Load: loadSummary{
			Sessions:       cfg.sessions,
			DurationSec:    elapsed.Seconds(),
			Queries:        queries,
			Errors:         errs,
			DialErrors:     dialErrors,
			QueriesPerSec:  float64(queries) / elapsed.Seconds(),
			P50Ms:          ms(all, 50),
			P99Ms:          ms(all, 99),
			P999Ms:         ms(all, 99.9),
			Sharing:        cfg.share,
			KNNQueries:     cs.Queries,
			PeerSolved:     cs.PeerSolved,
			CacheHits:      cs.OwnCacheSolved,
			ServerSolved:   cs.ServerSolved,
			SharesReceived: cs.SharesReceived,
			PeerBytes:      cs.PeerBytes,
			RelayExchanges: int64(len(relay)),
			RelayP50Ms:     ms(relay, 50),
			RelayP99Ms:     ms(relay, 99),
			RelayP999Ms:    ms(relay, 99.9),
		},
	}
	if cs.Queries > 0 {
		doc.Load.PeerSolvedFraction = float64(cs.PeerSolved) / float64(cs.Queries)
		doc.Load.CacheHitRate = float64(cs.OwnCacheSolved) / float64(cs.Queries)
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
