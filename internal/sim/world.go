package sim

import (
	"math/rand"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/spatialnet"
)

// World is a fully constructed simulation ready to run.
//
// Host state is stored structure-of-arrays: positions, grid cells, and the
// cache slot index live in parallel pointer-free slices indexed by host, so
// the movement shards and the gather phase stream through contiguous memory
// instead of chasing one heap object per host. What only some hosts use is
// sized to them: movement state per mover, cache storage per host that has
// queried. The layout is what lets a single machine hold million-host worlds
// — see DESIGN.md §8 for the per-host memory budget, and Footprint for the
// live numbers.
type World struct {
	cfg    Config
	rng    *rand.Rand
	server *ServerModule
	roads  *spatialnet.Graph // nil in free-movement mode

	// Per-host parallel slices (the SoA columns). pos is the step-start
	// position the query pipeline reads; cells mirrors grid.CellIndex(pos)
	// and is the movement phase's crossing detector.
	pos    []geom.Point
	cells  []int32
	caches *cache.Table

	// moving lists the non-stationary hosts in ascending index order — the
	// movement phase iterates it instead of skipping parked hosts one by
	// one. Movement state is indexed by position in this list: slot j of wp
	// (free movement) or road[j] (road mode) drives host moving[j].
	moving []int32
	wp     *mobility.Waypoints
	road   []*mobility.RoadNetwork

	grid *hostGrid
	// engine shards the movement phase across Config.Workers goroutines;
	// nil when the movement phase runs on the coordinating goroutine.
	// movers is the sequential path's per-step cell-crossing delta.
	engine *stepEngine
	movers []moverRec

	// qengine runs each step's query batch through the plan/resolve/commit
	// pipeline (queryengine.go), fanning the resolve phase across
	// Config.QueryWorkers goroutines.
	qengine *queryEngine

	now         float64
	nextQueryAt float64
	ran         bool
	metrics     Metrics

	// audit, when set, receives every query's final answer (the exact part
	// the host would act on). Tests use it to cross-check the full pipeline
	// against brute force.
	audit func(q geom.Point, k int, answer []core.Candidate, src core.Source)

	series       *seriesRecorder
	seriesPoints []WindowPoint
}

// Series returns the query-resolution time series recorded during Run (nil
// unless Config.SeriesWindow was set).
func (w *World) Series() []WindowPoint { return w.seriesPoints }

// SetAudit installs a callback receiving every executed query's answer.
// Intended for tests; pass nil to disable.
func (w *World) SetAudit(fn func(q geom.Point, k int, answer []core.Candidate, src core.Source)) {
	w.audit = fn
}

// PeerCachesSnapshot returns every host's current cache entry, in host
// order. Tests use it to validate that the sharing infrastructure only ever
// holds sound (exact-prefix) caches.
//
// The entries are copies, not aliases of live slots: the snapshot owns its
// neighbors — one allocation sized to exactly what the table holds — and
// stays as it was taken whatever the world does next.
func (w *World) PeerCachesSnapshot() []core.PeerCache {
	entries, neighbors := w.caches.Held()
	out := make([]core.PeerCache, 0, entries)
	arena := make(cache.Arena, 0, neighbors)
	for i := range w.pos {
		if e, ok := w.caches.Entry(i, &arena); ok {
			out = append(out, e)
		}
	}
	return out
}

// New builds a world from cfg: the road network (road mode), the POI set,
// the server module, and the host population with its movement state.
func New(cfg Config) (*World, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := &World{cfg: cfg, rng: rng}

	if cfg.Mode == ModeRoadNetwork {
		g, err := spatialnet.GenerateGrid(spatialnet.GridConfig{
			Width:          cfg.AreaWidth,
			Height:         cfg.AreaHeight,
			Spacing:        cfg.RoadSpacing,
			SecondaryEvery: 5,
			HighwayEvery:   20,
		})
		if err != nil {
			return nil, err
		}
		g.BuildNodeIndex()
		w.roads = g
	}

	pois := RandomPOIs(cfg.NumPOIs, cfg.Bounds(), rng)
	w.server = NewServerModule(pois, cfg.RTreeFanout)

	n := cfg.NumHosts
	w.grid = newHostGrid(cfg.Bounds(), n, cfg.TxRange)
	w.pos = make([]geom.Point, n)
	w.cells = make([]int32, n)
	w.caches = cache.NewTable(n, cfg.CacheSize, pois)
	// Free movers' waypoint seeds in moving order: the engine is sized to
	// the movers, whose number is only known once every host has drawn.
	var wpSeeds []uint64
	var finder *spatialnet.PathFinder
	if w.roads != nil {
		finder = spatialnet.NewPathFinder(w.roads)
	}
	for i := 0; i < n; i++ {
		start := geom.Pt(
			rng.Float64()*cfg.AreaWidth,
			rng.Float64()*cfg.AreaHeight,
		)
		moving := rng.Float64() < cfg.MovePercentage
		switch {
		case !moving:
			if w.roads != nil {
				// Parked hosts in road mode still sit on the network.
				node, _ := w.roads.NearestNodeIndexed(start)
				w.pos[i] = w.roads.Loc(node)
			} else {
				w.pos[i] = start
			}
		case cfg.Mode == ModeFreeMovement:
			w.pos[i] = start
			wpSeeds = append(wpSeeds, rng.Uint64())
			w.moving = append(w.moving, int32(i))
		default:
			node, _ := w.roads.NearestNodeIndexed(start)
			m := mobility.NewRoadNetworkWith(w.roads, node, cfg.Velocity, cfg.MaxPause,
				rand.New(rand.NewSource(rng.Int63())),
				mobility.RoadNetworkOptions{Finder: finder, TripRadius: cfg.TripRadius})
			w.pos[i] = m.Pos()
			w.road = append(w.road, m)
			w.moving = append(w.moving, int32(i))
		}
		w.cells[i] = w.grid.CellIndex(w.pos[i])
	}
	if cfg.Mode == ModeFreeMovement {
		w.wp = mobility.NewWaypoints(cfg.Bounds(), cfg.Velocity, cfg.MaxPause, cfg.TripRadius, len(w.moving))
		for j, i := range w.moving {
			w.wp.Seed(j, w.pos[i], wpSeeds[j])
		}
	}
	w.grid.Build(w.cells)
	w.initEngine(cfg.Workers)
	w.initQueryEngine(cfg.QueryWorkers)
	if cfg.SeriesWindow > 0 {
		w.series = newSeriesRecorder(cfg.SeriesWindow)
	}
	w.scheduleNextQuery()
	return w, nil
}

// Config returns the validated configuration in effect.
func (w *World) Config() Config { return w.cfg }

// Server exposes the server module (for benchmark harnesses).
func (w *World) Server() *ServerModule { return w.server }

// Roads returns the generated road network, nil in free-movement mode.
func (w *World) Roads() *spatialnet.Graph { return w.roads }

// scheduleNextQuery advances the query-event clock by one exponential
// inter-arrival gap of the λ_Query Poisson process. The gap is added to the
// previous event time (not the current step time), which is what makes the
// arrivals a proper Poisson stream.
func (w *World) scheduleNextQuery() {
	mean := 60.0 / w.cfg.QueriesPerMinute // seconds between queries
	w.nextQueryAt += w.rng.ExpFloat64() * mean
}

// Run advances the simulation to the configured duration and returns the
// steady-state metrics. It can be called once per World: the event clock,
// warm-up bookkeeping, and host caches are consumed by the run, so a second
// call would silently report wrong metrics — it panics instead.
//
// Each step runs the query pipeline of queryengine.go: plan every query
// event falling inside the step (all RNG draws, in event order), resolve
// the batch concurrently against the step-start snapshot, and commit the
// effects in event order. Metrics — including ServerPageAccesses, summed
// from per-query counts — cover exactly the events past warm-up.
func (w *World) Run() Metrics {
	if w.ran {
		panic("sim: World.Run called twice; build a new World per run")
	}
	w.ran = true
	warmupEnd := w.cfg.Duration * w.cfg.WarmupFraction
	dt := w.cfg.StepSeconds
	for w.now < w.cfg.Duration {
		stepEnd := w.now + dt
		if stepEnd > w.cfg.Duration {
			stepEnd = w.cfg.Duration
		}
		// Plan every query event that falls inside this step. Draw order
		// per event — host, k, inter-arrival gap — matches the serial
		// implementation, so the random stream is unchanged and independent
		// of how the resolve phase is scheduled.
		for w.nextQueryAt <= stepEnd {
			w.qengine.plans = append(w.qengine.plans, queryPlan{
				at:        w.nextQueryAt,
				host:      int32(w.rng.Intn(len(w.pos))),
				k:         w.cfg.KMin + w.rng.Intn(w.cfg.KMax-w.cfg.KMin+1),
				recording: w.nextQueryAt >= warmupEnd,
			})
			w.scheduleNextQuery()
		}
		// Resolve concurrently, commit in event order (bit-identical output
		// for any Config.QueryWorkers).
		w.qengine.runBatch()
		// Advance movement (sharded across Config.Workers goroutines when
		// configured; output is bit-identical for any worker count).
		w.advanceMovement(stepEnd - w.now)
		w.now = stepEnd
	}
	w.metrics.MeasuredSeconds = w.cfg.Duration - warmupEnd
	if w.series != nil {
		w.seriesPoints = w.series.finish()
	}
	return w.metrics
}
