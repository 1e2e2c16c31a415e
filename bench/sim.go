package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/sim"
)

// simSpec is one simulator workload: sim.New + World.Run on a fixed
// configuration. A run is a sequence of identical repetitions — same seed,
// same simulated duration, so the same work and the same counts — repeated
// until the measuring time is used up; rates are medians over repetitions,
// which is what keeps them steady on a shared host, and every repetition
// contributes one setup_s sample.
type simSpec struct {
	name string
	cfg  sim.Config // Seed is filled in per run
	// minReps repetitions always run, however short the measuring time.
	minReps int
}

const mile = 1609.344

// simWorkers is Workers = QueryWorkers for both workloads: two where the
// host has two cores, so the parallel paths are the ones measured.
func simWorkers() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// simQuery is Table 4 Los Angeles in free-movement mode with the query rate
// raised 20x: 2,700 queries per simulated second with a server share under
// 3%, so the batched gather, client.Resolver and core verification are the
// run and movement is minor.
var simQuery = simSpec{
	name: "sim-query",
	cfg: sim.Config{
		AreaWidth: 30 * mile, AreaHeight: 30 * mile,
		NumPOIs: 4050, NumHosts: 121500, CacheSize: 20,
		MovePercentage: 0.80, Velocity: 13.4112,
		QueriesPerMinute: 162000, TxRange: 200, KMin: 3, KMax: 7,
		Duration: 150, Mode: sim.ModeFreeMovement, MaxPause: 30,
	},
	minReps: 3,
}

// simMove is the PR 6 world: a million hosts at Table 4 density with a 10%
// movement duty cycle. Movement plus incremental grid maintenance is about
// three quarters of the wall time and most of the few queries fall through
// to EINN — the same grid used for writes where sim-query uses it for reads.
var simMove = simSpec{
	name: "sim-move",
	cfg: sim.Config{
		AreaWidth: 138470, AreaHeight: 138470,
		NumPOIs: 4050, NumHosts: 1_000_000, CacheSize: 20,
		MovePercentage: 0.10, Velocity: 13.4112,
		QueriesPerMinute: 8100, TxRange: 200, KMin: 3, KMax: 7,
		Duration: 300, Mode: sim.ModeFreeMovement, MaxPause: 30,
	},
	minReps: 3,
}

// simRep is what one sim.New + World.Run measured.
type simRep struct {
	setup, wall, cpu float64 // seconds
	queries          int64   // every query resolved, warm-up included
	metrics          sim.Metrics
	hits, fills      uint64
	world            *sim.World
}

// runRep builds and runs one world. prepare, when set, runs between New and
// Run (the traced run installs its audit there).
func runRep(cfg sim.Config, prepare func(*sim.World)) (simRep, error) {
	var r simRep
	cfg.SeriesWindow = cfg.Duration // the series counts warm-up queries too
	runtime.GC()
	t0 := time.Now()
	w, err := sim.New(cfg)
	if err != nil {
		return r, err
	}
	r.setup = time.Since(t0).Seconds()
	if prepare != nil {
		prepare(w)
	}
	cpu0, err := cpuSeconds(0)
	if err != nil {
		return r, err
	}
	t1 := time.Now()
	r.metrics = w.Run()
	r.wall = time.Since(t1).Seconds()
	cpu1, err := cpuSeconds(0)
	if err != nil {
		return r, err
	}
	r.cpu = cpu1 - cpu0
	for _, p := range w.Series() {
		r.queries += p.Queries
	}
	r.hits, r.fills = w.GatherReuse()
	r.world = w
	return r, nil
}

// runSim runs one simulator workload end to end.
func runSim(ctx context.Context, env *benchEnv, spec simSpec, o runOpts) (*result, error) {
	spec = env.scaleSim(spec)
	cfg := spec.cfg
	cfg.Seed = o.seed
	cfg.Workers, cfg.QueryWorkers = simWorkers(), simWorkers()
	res := newResult(spec.name, o, simWorkers())
	if o.trace {
		if err := runSimTraced(env, spec, cfg, res); err != nil {
			return nil, err
		}
	} else {
		start := time.Now()
		var reps []simRep
		for {
			if n := len(reps); n >= spec.minReps {
				// Start another repetition only if at least half of it fits.
				last := reps[n-1].setup + reps[n-1].wall
				if time.Since(start).Seconds()+last/2 > o.seconds {
					break
				}
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if n := len(reps); n > 0 {
				reps[n-1].world = nil // one world live at a time
			}
			r, err := runRep(cfg, nil)
			if err != nil {
				return nil, err
			}
			reps = append(reps, r)
		}
		reportSim(res, cfg, reps)
		checkCaches(res, reps[len(reps)-1].world)
	}
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	res.set("peak_rss_mb", rss)
	if res.Failed > 0 {
		res.Correct = false
	}
	res.set("error_rate", float64(res.Failed)/float64(max(res.Attempted, 1)))
	return res, nil
}

// reportSim reports medians over repetitions and the (identical) counts.
func reportSim(res *result, cfg sim.Config, reps []simRep) {
	var setup, qps, rate []float64
	cpu := 0.0 // summed: one repetition can be shorter than /proc's 10 ms tick
	for i, r := range reps {
		setup = append(setup, r.setup)
		qps = append(qps, float64(r.queries)/r.wall)
		rate = append(rate, cfg.Duration/r.wall)
		cpu += r.cpu
		res.Attempted += r.queries
		if r.metrics != reps[0].metrics || r.queries != reps[0].queries {
			res.Failed++
			res.notef("determinism: repetition %d counted %+v, repetition 0 %+v", i, r.metrics, reps[0].metrics)
		}
	}
	n := len(reps)
	m := reps[0].metrics
	res.setN("setup_s", median(setup), n)
	res.setN("qps", median(qps), n)
	res.setN("sim_rate", median(rate), n)
	res.set("proc.cpu_ms_per_kq", 1e6*cpu/float64(max(res.Attempted, 1)))
	res.setN("server_share", m.SQRR(), int(m.TotalQueries))
	res.setN("pages_per_server_query", m.PagesPerServerQuery(), int(m.SolvedByServer))
	res.setN("peer_bytes_per_query", m.PeerBytesPerQuery(), int(m.TotalQueries))
	res.notef("%d repetitions of %g simulated s (%d queries each), %d workers; counts cover the last %.0f s of each",
		n, cfg.Duration, reps[0].queries, cfg.Workers, m.MeasuredSeconds)
}

// maxCacheAudits bounds the end-of-run cache audit.
const maxCacheAudits = 2000

// checkCaches is the untraced run's correctness check, made after the run so
// it costs the measurement nothing: a host's cache entry is the certified
// answer of its most recent query, so every sampled entry must be an exact
// nearest-neighbour prefix at its query location, IDs and order, by a linear
// scan of the world's POIs.
func checkCaches(res *result, w *sim.World) {
	or := newOracle(w.Server().POIs())
	entries := w.PeerCachesSnapshot()
	stride := len(entries)/maxCacheAudits + 1
	var ids []int64
	checked, wrong := 0, 0
	for i := 0; i < len(entries); i += stride {
		e := entries[i]
		ids = ids[:0]
		for _, p := range e.Neighbors {
			ids = append(ids, p.ID)
		}
		checked++
		if !or.checkKNN(e.QueryLoc, len(ids), ids) {
			wrong++
		}
	}
	res.Failed += int64(wrong)
	if checked == 0 {
		res.Failed++
		res.notef("oracle: the run left no cache entry to check")
	} else {
		res.notef("oracle: %d of %d sampled cache entries differ from the linear scan (%d entries held)", wrong, checked, len(entries))
	}
}

// runSimTraced is the simulator's traced run: one audited repetition (every
// knnSampleEvery-th answer against the linear scan), one plain repetition
// for the tracing overhead, a twin with the query rate at its floor to
// separate movement from queries, and a single-worker repetition for the
// scaling ratio; then the grid and mobility probes.
func runSimTraced(env *benchEnv, spec simSpec, cfg sim.Config, res *result) error {
	type sample struct {
		q   geom.Point
		k   int
		ids []int64
	}
	var samples []sample
	var arena []int64
	var seen int64
	var srcs [4]int64
	audited, err := runRep(cfg, func(w *sim.World) {
		want := int(cfg.QueriesPerMinute/60*cfg.Duration)/knnSampleEvery + 64
		samples = make([]sample, 0, want)
		arena = make([]int64, 0, want*cfg.KMax)
		w.SetAudit(func(q geom.Point, k int, answer []core.Candidate, src core.Source) {
			if int(src) < len(srcs) {
				srcs[src]++
			}
			seen++
			if seen%knnSampleEvery != 0 || len(samples) == cap(samples) || len(arena)+len(answer) > cap(arena) {
				return
			}
			base := len(arena)
			for _, c := range answer {
				arena = append(arena, c.ID)
			}
			samples = append(samples, sample{q, k, arena[base:len(arena):len(arena)]})
		})
	})
	if err != nil {
		return err
	}
	or := newOracle(audited.world.Server().POIs())
	wrong := 0
	for _, s := range samples {
		if !or.checkKNN(s.q, s.k, s.ids) {
			wrong++
		}
	}
	res.Failed += int64(wrong)
	res.notef("oracle: %d of %d audited answers differ from the linear scan", wrong, len(samples))
	audited.world = nil

	plain, err := runRep(cfg, nil)
	if err != nil {
		return err
	}
	reportSim(res, cfg, []simRep{plain})
	plain.world = nil
	if audited.metrics != plain.metrics {
		res.Failed++
		res.notef("determinism: the audited repetition counted %+v, the plain one %+v", audited.metrics, plain.metrics)
	}

	twinCfg := cfg
	twinCfg.QueriesPerMinute = 1 // the floor: Validate rejects zero
	twin, err := runRep(twinCfg, nil)
	if err != nil {
		return err
	}
	twin.world = nil
	oneCfg := cfg
	oneCfg.Workers, oneCfg.QueryWorkers = 1, 1
	one, err := runRep(oneCfg, nil)
	if err != nil {
		return err
	}
	one.world = nil
	if one.metrics != plain.metrics {
		res.Failed++
		res.notef("determinism: one worker counted %+v, %d workers %+v", one.metrics, cfg.Workers, plain.metrics)
	}

	res.setN("setup_s", median([]float64{audited.setup, plain.setup, twin.setup, one.setup}), 4)
	steps := cfg.Duration // StepSeconds defaults to 1
	m := plain.metrics
	res.set("trace.overhead_pct", 100*(audited.wall-plain.wall)/plain.wall)
	res.set("sim.move_ms_per_step", 1e3*twin.wall/steps)
	res.set("sim.query_us", 1e6*(plain.wall-twin.wall)/float64(max(plain.queries, 1)))
	res.set("sim.worker_speedup", one.wall/plain.wall)
	if plain.hits+plain.fills > 0 {
		res.set("sim.gather_reuse_ratio", float64(plain.hits)/float64(plain.hits+plain.fills))
	}
	res.set("sim.peer_msgs_per_query", float64(m.PeerMessages)/float64(max(m.TotalQueries, 1)))
	res.set("core.single_share", m.ShareSingle())
	res.set("core.multi_share", m.ShareMulti())
	res.set("proc.loadgen_cpu_share", 1) // the simulator runs in the harness process

	// The same grid and mobility code paths, outside the world loop.
	rng := rand.New(rand.NewSource(cfg.Seed))
	nPts := min(cfg.NumHosts, 200000)
	side := cfg.AreaWidth * math.Sqrt(float64(nPts)/float64(cfg.NumHosts)) // keep the world's host density
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(side, side))
	pts := make([]geom.Point, nPts)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*side, rng.Float64()*side)
	}
	grid := sim.NewPointGrid(pts, bounds, cfg.TxRange)
	found := 0
	res.set("sim.grid_within_ns", timeCalls(20000, 100, func(i int) {
		grid.ForEachWithin(pts[(i*7919)%nPts], cfg.TxRange, func(int32) { found++ })
	}))
	wp := mobility.NewWaypoints(bounds, cfg.Velocity, cfg.MaxPause, 2500, nPts)
	for i := range pts {
		wp.Seed(i, pts[i], rng.Uint64())
	}
	res.set("mobility.advance_ns", timeCalls(nPts, 1000, func(i int) {
		pts[i] = wp.Advance(i, pts[i], 1)
	}))

	stepMs := 1e3 * plain.wall / steps
	moveMs := res.get("sim.move_ms_per_step")
	res.notef("layer budget of one simulated step (%d workers, %.3f ms):", cfg.Workers, stepMs)
	res.notef("  %-26s %9.3f ms  %5.1f%%", "sim movement+grid (twin)", moveMs, 100*moveMs/stepMs)
	res.notef("  %-26s %9.3f ms  %5.1f%%  (%.2f us x %.0f queries/step)", "query engine", stepMs-moveMs,
		100*(stepMs-moveMs)/stepMs, res.get("sim.query_us"), float64(plain.queries)/steps)
	res.set("budget.unattributed_us", 0) // the twin split is exhaustive by construction

	out := filepath.Join(env.outDir, fmt.Sprintf("%s-seed%d.spans.csv", spec.name, res.Seed))
	return writeSimSpans(out, res, []string{"audited", "plain", "twin", "one-worker"}, []simRep{audited, plain, twin, one})
}

// writeSimSpans writes the repetition-level spans (sim.New, World.Run) of a
// traced simulator run.
func writeSimSpans(path string, res *result, names []string, reps []simRep) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "run,span,parent,seconds")
	for i, name := range names {
		r := reps[i]
		fmt.Fprintf(w, "%s,rep,,%.6f\n%s,sim.new,rep,%.6f\n%s,world.run,rep,%.6f\n",
			name, r.setup+r.wall, name, r.setup, name, r.wall)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	res.notef("trace: spans written to %s", path)
	return f.Close()
}
