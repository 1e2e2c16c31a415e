package sim

import (
	"math"
	"math/rand"
	"slices"
	"sync"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/mobility"
	"repro/internal/spatialnet"
)

// World is a fully constructed simulation ready to run.
//
// Host state is stored structure-of-arrays: positions, grid cells, and the
// cache slot index live in parallel pointer-free slices indexed by host, so
// the movement step and the gather phase stream through contiguous memory
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
	// movers is the last movement step's cell-crossing delta, reused every
	// step (advanceMovement).
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
// The population is built in one pipelined pass (populate): the calling
// goroutine makes every draw from the world's random stream, host by host
// in host order, and hands each chunk of drawn hosts to Config.Workers-1
// placing workers while it keeps drawing. What a chunk's placing computes
// depends only on its hosts' draws and the read-only road graph, so the
// world is the same bit for bit for any worker count
// (TestNewMatchesReference).
func New(cfg Config) (*World, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	return build(cfg, chunkHosts(cfg.NumHosts, cfg.Workers), expectedMovers(cfg.NumHosts, cfg.MovePercentage))
}

// build is New on a validated config, given the pipeline's chunk size and
// the mover count its movement columns are presized for.
func build(cfg Config, chunk, moverBound int) (*World, error) {
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
	w.server = NewServerModule(pois, Fanout)

	w.populate(pois, chunk, moverBound)
	w.initQueryEngine(cfg.QueryWorkers)
	if cfg.SeriesWindow > 0 {
		w.series = newSeriesRecorder(cfg.SeriesWindow)
	}
	w.scheduleNextQuery()
	return w, nil
}

// chunkHosts is how many hosts New draws before it hands them to a placing
// worker: at most 16,384 — 62 hand-offs for a million hosts, and a last
// chunk small enough that placing ends soon after the last draw — and at
// least eight chunks per placer, so that a road world, where placing a
// mover plans a route and costs far more than drawing it, still spreads
// over every placer.
func chunkHosts(n, workers int) int {
	return max(1, min(1<<14, n/(8*max(1, workers))))
}

// expectedMovers sizes the moving list, the seed list and the movement
// columns before the hosts draw: the mean of the binomial mover count plus
// four standard deviations, so they almost never grow.
func expectedMovers(n int, p float64) int {
	mean := float64(n) * p
	return min(n, int(mean+4*math.Sqrt(mean*(1-p)))+1)
}

// chunkJob is one chunk of New's pipeline: hosts [lo, hi), whose movers
// are movers (ascending), at moving-list positions j0, j0+1, ..., drawing
// seeds.
type chunkJob struct {
	lo, hi, j0 int
	movers     []int32
	seeds      []uint64
}

// populate builds the host columns, drawing and placing the population in
// one pass on at most Config.Workers goroutines, the calling one counted.
//
// The calling goroutine is the only reader of the world's stream after the
// POIs: per host in host order its start, whether it moves and, for a
// mover, the seed of its private generator (movement state is indexed by
// position in the moving list). After each chunk of hosts it queues the
// chunk for Workers-1 placing workers and keeps drawing; after the last
// draw it places queued chunks beside them. With one worker it places each
// chunk itself as soon as the chunk is drawn.
//
// The columns no draw writes — grid cells, the grid, the cache table and
// the movement columns — are allocated, and so zeroed, by the first worker
// (the coordinator when it is the only one) before its first chunk, while
// the draws go on. The movement columns come last: the collector paces the
// run that follows from what is live when New's last cycle ends, and
// allocating them first left the sim-query world's heap 4 MB larger for
// its whole run.
//
// Each placer counts the grid cells of the chunks it takes into its own
// histogram: the first worker into the grid's own table, the coordinator
// into the cell table the first movement step's applyDelta allocates
// anyway, any further worker into one it allocates. Once every chunk is
// placed the histograms are summed and the grid's place half runs in
// Workers bands of cell rows.
func (w *World) populate(pois []core.POI, chunk, moverBound int) {
	cfg, rng, n := w.cfg, w.rng, w.cfg.NumHosts
	workers := max(1, cfg.Workers)
	w.pos = make([]geom.Point, n)
	moving := make([]int32, 0, moverBound)
	seeds := make([]uint64, 0, moverBound)

	// Placer p's histogram and route planner are its own; the coordinator
	// is placer workers-1. A road mover keeps the planner of the placer that
	// built it: only one goroutine moves hosts (advanceMovement), so movers
	// sharing a planner never use it at once. A placer's first chunk, and
	// any growth of the movement columns, waits for the columns.
	counts := make([][]int32, workers)
	finders := make([]*spatialnet.PathFinder, workers)
	ready := make(chan struct{})
	columns := func() {
		w.cells = make([]int32, n)
		w.grid = newHostGrid(cfg.Bounds(), n, cfg.TxRange)
		counts[0] = w.grid.Start[1:]
		w.caches = cache.NewTable(n, cfg.CacheSize, pois)
		if w.roads == nil {
			w.wp = mobility.NewWaypoints(cfg.Bounds(), cfg.Velocity, cfg.MaxPause, cfg.TripRadius, moverBound)
		} else {
			w.road = make([]*mobility.RoadNetwork, moverBound)
		}
		close(ready)
	}
	place := func(p int, job chunkJob) {
		if counts[p] == nil {
			<-ready
			if p == workers-1 {
				w.grid.delta.touch = make([]int32, w.grid.NumCells())
				counts[p] = w.grid.delta.touch
			} else {
				counts[p] = make([]int32, w.grid.NumCells())
			}
		}
		if w.roads != nil && finders[p] == nil {
			finders[p] = spatialnet.NewPathFinder(w.roads)
		}
		w.placeChunk(job, counts[p], finders[p])
	}
	// One buffer slot per chunk: the coordinator never waits to queue one.
	jobs := make(chan chunkJob, (n+chunk-1)/chunk)
	var pending, exited sync.WaitGroup
	if workers == 1 {
		columns()
	}
	exited.Add(workers - 1)
	for p := 0; p < workers-1; p++ {
		go func() {
			defer exited.Done()
			if p == 0 {
				columns()
			}
			for job := range jobs {
				place(p, job)
				pending.Done()
			}
		}()
	}

	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		j0 := len(moving)
		for i := lo; i < hi; i++ {
			w.pos[i] = geom.Pt(
				rng.Float64()*cfg.AreaWidth,
				rng.Float64()*cfg.AreaHeight,
			)
			if rng.Float64() >= cfg.MovePercentage {
				continue
			}
			if len(moving) == cap(moving) {
				// More movers than the bound: the movement columns move,
				// so no queued chunk may be writing them.
				<-ready
				pending.Wait()
				moving = slices.Grow(moving, 1)
				seeds = slices.Grow(seeds, cap(moving)-len(seeds))
				w.resizeMovers(cap(moving))
			}
			moving = append(moving, int32(i))
			if w.roads == nil {
				seeds = append(seeds, rng.Uint64())
			} else {
				seeds = append(seeds, uint64(rng.Int63()))
			}
		}
		job := chunkJob{
			lo: lo, hi: hi, j0: j0,
			movers: moving[j0:len(moving):len(moving)],
			seeds:  seeds[j0:len(seeds):len(seeds)],
		}
		if workers == 1 {
			place(0, job)
			continue
		}
		pending.Add(1)
		jobs <- job
	}
	close(jobs)
	for job := range jobs {
		place(workers-1, job)
		pending.Done()
	}
	exited.Wait()

	w.moving = moving
	w.resizeMovers(len(moving))
	start := w.grid.Start
	for _, t := range counts[1:] {
		for c, k := range t {
			start[c+1] += k
		}
	}
	clear(w.grid.delta.touch)
	w.grid.Place(w.cells, workers)
}

// resizeMovers sets the movement columns to n slots (mobility.Waypoints
// or the road movers), reallocating only past their capacity.
func (w *World) resizeMovers(n int) {
	if w.wp != nil {
		w.wp.Resize(n)
		return
	}
	if n > len(w.road) {
		w.road = slices.Grow(w.road, n-len(w.road))
	}
	w.road = w.road[:n]
}

// placeChunk places one chunk, writing only its own hosts' and movers'
// slots. It arms every mover from its seed and its drawn start — a free
// mover's first leg (Waypoints.Seed); a road mover's snap to the network,
// its generator and its first route, planned with finder — snaps every
// parked road host to the network, and computes every host's grid cell and
// counts it into counts. A mover's state is a pure function of its seed,
// its start and the graph, so neither the chunk size nor which placer
// takes a chunk can change the result.
func (w *World) placeChunk(job chunkJob, counts []int32, finder *spatialnet.PathFinder) {
	cfg := w.cfg
	next := 0
	for i := job.lo; i < job.hi; i++ {
		if next < len(job.movers) && int(job.movers[next]) == i {
			j := job.j0 + next
			if w.wp != nil {
				w.wp.Seed(j, w.pos[i], job.seeds[next])
			} else {
				node, _ := w.roads.NearestNodeIndexed(w.pos[i])
				m := mobility.NewRoadNetworkWith(w.roads, node, cfg.Velocity, cfg.MaxPause,
					rand.New(rand.NewSource(int64(job.seeds[next]))),
					mobility.RoadNetworkOptions{Finder: finder, TripRadius: cfg.TripRadius})
				w.road[j] = m
				w.pos[i] = m.Pos()
			}
			next++
		} else if w.roads != nil {
			// Parked hosts in road mode still sit on the network.
			node, _ := w.roads.NearestNodeIndexed(w.pos[i])
			w.pos[i] = w.roads.Loc(node)
		}
		w.cells[i] = w.grid.CellIndex(w.pos[i])
	}
	grid.Count(counts, w.cells[job.lo:job.hi])
}

// advanceMovement runs one movement step on the coordinating goroutine:
// every mover advances by dt — slot j of the mode's movement state drives
// host moving[j] — and each host whose grid cell changed is recorded, in
// ascending host order as applyDelta requires, before the grid is patched
// from that delta. Stationary hosts are never visited.
func (w *World) advanceMovement(dt float64) {
	g := w.grid
	movers := w.movers[:0]
	for j, i := range w.moving {
		var p geom.Point
		if w.wp != nil {
			p = w.wp.Advance(j, w.pos[i], dt)
		} else {
			p = w.road[j].Advance(dt)
		}
		w.pos[i] = p
		if c := g.CellIndex(p); c != w.cells[i] {
			movers = append(movers, moverRec{host: i, from: w.cells[i], to: c})
			w.cells[i] = c
		}
	}
	g.applyDelta(w.cells, movers)
	w.movers = movers
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
// effects in event order. Then every mover advances on this goroutine
// (advanceMovement). Metrics — including ServerPageAccesses, summed from
// per-query counts — cover exactly the events past warm-up.
func (w *World) Run() Metrics {
	if w.ran {
		panic("sim: World.Run called twice; build a new World per run")
	}
	w.ran = true
	warmupEnd := w.cfg.Duration * warmupFraction
	for w.now < w.cfg.Duration {
		stepEnd := w.now + stepSeconds
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
		w.advanceMovement(stepEnd - w.now)
		w.now = stepEnd
	}
	w.metrics.MeasuredSeconds = w.cfg.Duration - warmupEnd
	if w.series != nil {
		w.seriesPoints = w.series.finish()
	}
	return w.metrics
}
