package sim

import (
	"math"
	"math/rand"
	"slices"

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
	// finders are the road movers' route planners, one per shard: the movers
	// of shard s of splitRange(len(moving), len(finders)) plan with
	// finders[s], so shards of that layout never share one.
	finders []*spatialnet.PathFinder

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
//
// The population is built in two phases. The serial phase makes every draw
// from the world's random stream, host by host in host order; placeHosts
// then does the rest — first legs or first routes, snaps to the network,
// grid cells — across Config.Workers goroutines. What it computes depends
// only on a host's draws and the read-only road graph, so the world is the
// same bit for bit for any worker count (TestNewMatchesReference).
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

	// Serial phase, the only reader of the world's stream after the POIs:
	// per host in host order its start, whether it moves and, for a mover,
	// the seed of its private generator (movement state is indexed by
	// position in the moving list).
	movers := expectedMovers(n, cfg.MovePercentage)
	w.moving = make([]int32, 0, movers)
	seeds := make([]uint64, 0, movers)
	for i := 0; i < n; i++ {
		w.pos[i] = geom.Pt(
			rng.Float64()*cfg.AreaWidth,
			rng.Float64()*cfg.AreaHeight,
		)
		if moving := rng.Float64() < cfg.MovePercentage; !moving {
			continue
		}
		w.moving = append(w.moving, int32(i))
		if w.roads == nil {
			seeds = append(seeds, rng.Uint64())
		} else {
			seeds = append(seeds, uint64(rng.Int63()))
		}
	}
	w.placeHosts(seeds)
	w.grid.Build(w.cells)
	w.initEngine(cfg.Workers)
	w.initQueryEngine(cfg.QueryWorkers)
	if cfg.SeriesWindow > 0 {
		w.series = newSeriesRecorder(cfg.SeriesWindow)
	}
	w.scheduleNextQuery()
	return w, nil
}

// expectedMovers sizes the moving list and the seed list before the hosts
// draw: the mean of the binomial mover count plus four standard deviations,
// so the lists almost never grow.
func expectedMovers(n int, p float64) int {
	mean := float64(n) * p
	return min(n, int(mean+4*math.Sqrt(mean*(1-p)))+1)
}

// placeHosts is New's parallel phase, fanned across Config.Workers
// goroutines in contiguous shards. Over shards of the moving list it arms
// every mover from its seed and its drawn start: a free mover's first leg
// (Waypoints.Seed); a road mover's snap to the network, its generator and
// its first route, planned with the shard's own PathFinder. Then, over
// shards of the population, it snaps each parked road host to the network
// and computes every host's grid cell. Each shard writes only its own
// slots, and each mover's state is a pure function of its seed, its start
// and the graph, so no shard layout can change the result.
func (w *World) placeHosts(seeds []uint64) {
	cfg := w.cfg
	movers := splitRange(len(w.moving), cfg.Workers)
	if w.roads == nil {
		w.wp = mobility.NewWaypoints(cfg.Bounds(), cfg.Velocity, cfg.MaxPause, cfg.TripRadius, len(w.moving))
		runWorkers(len(movers), func(s int) {
			for j := movers[s][0]; j < movers[s][1]; j++ {
				w.wp.Seed(j, w.pos[w.moving[j]], seeds[j])
			}
		})
	} else {
		w.road = make([]*mobility.RoadNetwork, len(w.moving))
		w.finders = make([]*spatialnet.PathFinder, len(movers))
		runWorkers(len(movers), func(s int) {
			w.finders[s] = spatialnet.NewPathFinder(w.roads)
			opts := mobility.RoadNetworkOptions{Finder: w.finders[s], TripRadius: cfg.TripRadius}
			for j := movers[s][0]; j < movers[s][1]; j++ {
				i := w.moving[j]
				node, _ := w.roads.NearestNodeIndexed(w.pos[i])
				m := mobility.NewRoadNetworkWith(w.roads, node, cfg.Velocity, cfg.MaxPause,
					rand.New(rand.NewSource(int64(seeds[j]))), opts)
				w.road[j] = m
				w.pos[i] = m.Pos()
			}
		})
	}
	hosts := splitRange(len(w.pos), cfg.Workers)
	runWorkers(len(hosts), func(s int) {
		lo, hi := hosts[s][0], hosts[s][1]
		// next walks the moving list alongside the hosts: the first mover
		// at or after lo, then the next one not yet passed.
		next, _ := slices.BinarySearch(w.moving, int32(lo))
		for i := lo; i < hi; i++ {
			if next < len(w.moving) && int(w.moving[next]) == i {
				next++
			} else if w.roads != nil {
				// Parked hosts in road mode still sit on the network.
				node, _ := w.roads.NearestNodeIndexed(w.pos[i])
				w.pos[i] = w.roads.Loc(node)
			}
			w.cells[i] = w.grid.CellIndex(w.pos[i])
		}
	})
}

// Server exposes the server module (for benchmark harnesses).
func (w *World) Server() *ServerModule { return w.server }

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
