package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/nn"
	"repro/internal/sim"
)

// SeriesPoint is one x position of a sweep with the three query-resolution
// shares the paper's Figures 9–16 plot, plus the communication-overhead and
// server page-access series the same runs produce. When Options.Repeats > 1
// every value is a mean over the repeated runs and the Std fields carry their
// sample standard deviations (zero for a single run).
type SeriesPoint struct {
	X           float64 // swept parameter value
	ShareSingle float64 // % solved by a single peer
	ShareMulti  float64 // % solved by multiple peers
	ShareServer float64 // % solved by the server (SQRR)
	CommBytes   float64 // mean P2P wire bytes per query
	ServerPages float64 // mean R*-tree page accesses per server-resolved query

	StdSingle float64 // stddev of ShareSingle across repeats
	StdMulti  float64 // stddev of ShareMulti across repeats
	StdServer float64 // stddev of ShareServer across repeats
	StdComm   float64 // stddev of CommBytes across repeats
	StdPages  float64 // stddev of ServerPages across repeats
}

// FigureResult is one sub-figure: a sweep for one region.
type FigureResult struct {
	Figure string // e.g. "9a"
	Region Region
	Area   Area
	XLabel string
	Points []SeriesPoint
}

// Options tunes how the experiment runners execute.
type Options struct {
	// DurationScale divides the paper's simulated durations (default 30:
	// the 1 h runs become 2 min, the 5 h runs 10 min). Use 1 for the full
	// paper-length runs.
	DurationScale float64
	// HostScale optionally divides host counts and query rates for smoke
	// runs (default 1 = faithful densities).
	HostScale float64
	// Seed offsets the base seed of every run.
	Seed int64
	// Workers is the total core budget of a runner: it caps how many
	// independent simulation runs execute concurrently (0 = GOMAXPROCS,
	// 1 = sequential) and, through WorkerBudget, how many movement workers
	// each run gets (outer tasks × inner workers ≤ Workers). Any value
	// produces bit-identical results; see RunParallel and WorkerBudget.
	Workers int
	// WorldWorkers overrides the intra-world movement worker count
	// (sim.Config.Workers) of every simulation the runner launches. 0
	// derives it from the Workers budget via WorkerBudget. Results are
	// identical for any value.
	WorldWorkers int
	// QueryWorkers overrides the query-resolve worker count
	// (sim.Config.QueryWorkers) of every simulation the runner launches. 0
	// derives it from the Workers budget via WorkerBudget. Results are
	// identical for any value.
	QueryWorkers int
	// Repeats runs every sweep point with this many independent seeds and
	// reports the mean shares plus their sample standard deviation in the
	// SeriesPoint Std fields. 0 or 1 = a single run per point (the
	// FreeMovementComparison study defaults to 3 — its effect is below
	// single-run noise).
	Repeats int
	// CommonRandomNumbers gives every point of a sweep the identical base
	// seed, pairing the runs as a variance-reduction technique. Off by
	// default: each point then draws an independent seed, so the points are
	// independent samples. Repeated runs of the same point always draw
	// distinct seeds.
	CommonRandomNumbers bool
}

// normalize fills defaults.
func (o Options) normalize() Options {
	if o.DurationScale <= 0 {
		o.DurationScale = 30
	}
	if o.HostScale <= 0 {
		o.HostScale = 1
	}
	return o
}

// workerSplit resolves the three parallelism levels for a runner with the
// given task count: the outer RunParallel worker count and the
// sim.Config.Workers / sim.Config.QueryWorkers values of each launched
// simulation, honoring explicit WorldWorkers / QueryWorkers overrides.
func (o Options) workerSplit(tasks int) (outer, move, query int) {
	outer, move, query = WorkerBudget(o.Workers, tasks)
	if o.WorldWorkers > 0 {
		move = o.WorldWorkers
	}
	if o.QueryWorkers > 0 {
		query = o.QueryWorkers
	}
	return outer, move, query
}

// repeats resolves the effective per-point run count.
func (o Options) repeats() int {
	if o.Repeats < 1 {
		return 1
	}
	return o.Repeats
}

// sweepSeed derives the seed of repeat rep of sweep point i. By default
// every point gets its own seed so the points are independent samples; with
// CommonRandomNumbers all points share the base seed (paired runs). Repeats
// of the same point always get distinct seeds — the same 7919 stride the
// free-movement study has always used — so the per-point samples are
// independent under either policy.
func sweepSeed(baseSeed int64, opts Options, i, rep int) int64 {
	s := baseSeed + opts.Seed
	if !opts.CommonRandomNumbers {
		s += int64(i) * 1_000_000
	}
	return s + int64(rep)*7919
}

// shareSample is one run's contribution to a sweep point.
type shareSample struct {
	single, multi, server float64
	bytes, pages          float64
}

// aggregateShares folds the repeated samples of one x into its SeriesPoint:
// mean shares, communication overhead, and page accesses, plus their sample
// standard deviations (zero for n = 1).
func aggregateShares(x float64, samples []shareSample) SeriesPoint {
	n := float64(len(samples))
	var p SeriesPoint
	p.X = x
	for _, s := range samples {
		p.ShareSingle += s.single / n
		p.ShareMulti += s.multi / n
		p.ShareServer += s.server / n
		p.CommBytes += s.bytes / n
		p.ServerPages += s.pages / n
	}
	if len(samples) > 1 {
		var vs, vm, vv, vb, vp float64
		for _, s := range samples {
			vs += (s.single - p.ShareSingle) * (s.single - p.ShareSingle)
			vm += (s.multi - p.ShareMulti) * (s.multi - p.ShareMulti)
			vv += (s.server - p.ShareServer) * (s.server - p.ShareServer)
			vb += (s.bytes - p.CommBytes) * (s.bytes - p.CommBytes)
			vp += (s.pages - p.ServerPages) * (s.pages - p.ServerPages)
		}
		p.StdSingle = math.Sqrt(vs / (n - 1))
		p.StdMulti = math.Sqrt(vm / (n - 1))
		p.StdServer = math.Sqrt(vv / (n - 1))
		p.StdComm = math.Sqrt(vb / (n - 1))
		p.StdPages = math.Sqrt(vp / (n - 1))
	}
	return p
}

// runSweep executes opts.Repeats simulations per sweep value, mutating the
// base config through mut. The runs are independent and execute across
// opts.Workers goroutines; each task owns its result slot and derives its
// seed from its (point, repeat) index, so the series is identical for any
// worker count.
func runSweep(base sim.Config, xs []float64, opts Options, mut func(cfg *sim.Config, x float64)) ([]SeriesPoint, error) {
	opts = opts.normalize()
	repeats := opts.repeats()
	samples := make([]shareSample, len(xs)*repeats)
	outer, move, query := opts.workerSplit(len(samples))
	tasks := make([]RunTask, len(samples))
	for i, x := range xs {
		for rep := 0; rep < repeats; rep++ {
			slot, i, x, rep := i*repeats+rep, i, x, rep
			tasks[slot] = func() error {
				cfg := ScaleHosts(ScaleDuration(base, opts.DurationScale), opts.HostScale)
				cfg.Seed = sweepSeed(base.Seed, opts, i, rep)
				cfg.Workers = move
				cfg.QueryWorkers = query
				mut(&cfg, x)
				w, err := sim.New(cfg)
				if err != nil {
					return fmt.Errorf("sweep x=%v: %w", x, err)
				}
				m := w.Run()
				samples[slot] = shareSample{
					single: m.ShareSingle(),
					multi:  m.ShareMulti(),
					server: m.SQRR(),
					bytes:  m.PeerBytesPerQuery(),
					pages:  m.PagesPerServerQuery(),
				}
				return nil
			}
		}
	}
	if err := RunParallel(tasks, outer); err != nil {
		return nil, err
	}
	pts := make([]SeriesPoint, len(xs))
	for i, x := range xs {
		pts[i] = aggregateShares(x, samples[i*repeats:(i+1)*repeats])
	}
	return pts, nil
}

// TransmissionRangeSweep reproduces Figures 9 (2×2 mi) and 10 (30×30 mi):
// the wireless transmission range varies from 10/20 m to 200 m.
func TransmissionRangeSweep(r Region, a Area, opts Options) (FigureResult, error) {
	xs := []float64{20, 40, 60, 80, 100, 120, 140, 160, 180, 200}
	pts, err := runSweep(BaseConfig(r, a), xs, opts, func(cfg *sim.Config, x float64) {
		cfg.TxRange = x
	})
	fig := "9"
	if a == Area30mi {
		fig = "10"
	}
	return FigureResult{
		Figure: fig + subfig(r), Region: r, Area: a,
		XLabel: "Transmission Range (m)", Points: pts,
	}, err
}

// CacheCapacitySweep reproduces Figures 11 and 12: the per-host cache
// capacity varies (1–9 in the small area, 4–20 in the large one).
func CacheCapacitySweep(r Region, a Area, opts Options) (FigureResult, error) {
	xs := []float64{1, 3, 5, 7, 9}
	if a == Area30mi {
		xs = []float64{4, 8, 12, 16, 20}
	}
	pts, err := runSweep(BaseConfig(r, a), xs, opts, func(cfg *sim.Config, x float64) {
		cfg.CacheSize = int(x)
	})
	fig := "11"
	if a == Area30mi {
		fig = "12"
	}
	return FigureResult{
		Figure: fig + subfig(r), Region: r, Area: a,
		XLabel: "Number of Cached Items", Points: pts,
	}, err
}

// VelocitySweep reproduces Figures 13 and 14: the host movement velocity
// varies from 10 to 50 mph.
func VelocitySweep(r Region, a Area, opts Options) (FigureResult, error) {
	xs := []float64{10, 20, 30, 40, 50}
	pts, err := runSweep(BaseConfig(r, a), xs, opts, func(cfg *sim.Config, x float64) {
		cfg.Velocity = x * MPH
	})
	fig := "13"
	if a == Area30mi {
		fig = "14"
	}
	return FigureResult{
		Figure: fig + subfig(r), Region: r, Area: a,
		XLabel: "Mobile Host Speed (mph)", Points: pts,
	}, err
}

// KSweep reproduces Figures 15 and 16: the requested neighbor count k is
// fixed per sweep point (1–9 in the small area, 3–15 in the large one).
func KSweep(r Region, a Area, opts Options) (FigureResult, error) {
	xs := []float64{1, 3, 5, 7, 9}
	if a == Area30mi {
		xs = []float64{3, 6, 9, 12, 15}
	}
	pts, err := runSweep(BaseConfig(r, a), xs, opts, func(cfg *sim.Config, x float64) {
		cfg.KMin, cfg.KMax = int(x), int(x)
	})
	fig := "15"
	if a == Area30mi {
		fig = "16"
	}
	return FigureResult{
		Figure: fig + subfig(r), Region: r, Area: a,
		XLabel: "Number of k", Points: pts,
	}, err
}

// FreeMovementComparison reproduces the §4.3 observation: the free movement
// mode lowers the server share slightly relative to the road network mode,
// most visibly in dense regions. The delta is a few percent — below
// single-run noise — so each mode is averaged over Options.Repeats seeds
// (defaulting to 3 here rather than 1: the study is meaningless unaveraged).
// It returns the averaged (roadSQRR, freeSQRR).
func FreeMovementComparison(r Region, a Area, opts Options) (road, free float64, err error) {
	opts = opts.normalize()
	if opts.Repeats < 1 {
		opts.Repeats = 3
	}
	repeats := opts.repeats()
	modes := []sim.Mode{sim.ModeRoadNetwork, sim.ModeFreeMovement}
	shares := make([]float64, len(modes)*repeats)
	outer, move, query := opts.workerSplit(len(shares))
	tasks := make([]RunTask, 0, len(shares))
	for mi, mode := range modes {
		for rep := 0; rep < repeats; rep++ {
			slot, mode, rep := mi*repeats+rep, mode, rep
			tasks = append(tasks, func() error {
				cfg := ScaleHosts(ScaleDuration(BaseConfig(r, a), opts.DurationScale), opts.HostScale)
				cfg.Mode = mode
				cfg.Seed += opts.Seed + int64(rep)*7919
				cfg.Workers = move
				cfg.QueryWorkers = query
				w, werr := sim.New(cfg)
				if werr != nil {
					return werr
				}
				shares[slot] = w.Run().SQRR()
				return nil
			})
		}
	}
	if err := RunParallel(tasks, outer); err != nil {
		return 0, 0, err
	}
	for rep := 0; rep < repeats; rep++ {
		road += shares[rep] / float64(repeats)
		free += shares[repeats+rep] / float64(repeats)
	}
	return road, free, nil
}

func subfig(r Region) string {
	switch r {
	case LosAngeles:
		return "a"
	case Suburbia:
		return "b"
	default:
		return "c"
	}
}

// ---------------------------------------------------------------------------
// Figure 17: EINN vs INN page accesses at the server.

// Fig17Point compares R*-tree page accesses of the extended (EINN) and the
// original (INN) incremental NN algorithm for one k.
type Fig17Point struct {
	K         int     `json:"k"`
	EINNPages float64 `json:"einn_pages"` // mean pages per query
	INNPages  float64 `json:"inn_pages"`
	Reduction float64 `json:"reduction_pct"` // % fewer pages with EINN
}

// Fig17Result is the Figure 17 series for one region.
type Fig17Result struct {
	Region Region
	Points []Fig17Point
}

// EINNvsINN reproduces Figure 17: for each k, queries are generated at
// uniformly random locations (as in §4.4); each query first runs peer
// verification against a synthetic population of cached results (giving the
// realistic mix of pruning bounds a running system produces), then the
// server executes the query with both INN (no bounds) and EINN (with the
// client's bounds), counting R*-tree node accesses.
//
// The POI set is clustered, not uniform: the paper indexes real gas-station
// locations, which concentrate along arterials, and the downward-pruning
// benefit of EINN depends on leaf MBRs small enough to hide inside the
// client's certain circle — exactly what clustering produces (DESIGN.md,
// substitution D3).
func EINNvsINN(r Region, a Area, queries int, opts Options) (Fig17Result, error) {
	opts = opts.normalize()
	base := BaseConfig(r, a)
	rng := rand.New(rand.NewSource(base.Seed + opts.Seed + 17))
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(base.AreaWidth, base.AreaHeight))
	pois := sim.ClusteredPOIs(base.NumPOIs, bounds, base.NumPOIs/25, base.AreaWidth/250, rng)
	// One read-only tree serves the cache setup and every k-task: each
	// traversal returns its own page count, so concurrent tasks share no
	// mutable state.
	tree := sim.NewServerModule(pois, base.RTreeFanout).Tree()

	// Synthetic peer caches: hosts that previously queried at random
	// locations and hold their exact top-C_Size NN sets — what the running
	// simulator's steady state produces. Built once, read-only afterwards.
	nCaches := 2000
	caches := make([]core.PeerCache, nCaches)
	for i := range caches {
		loc := geom.Pt(rng.Float64()*base.AreaWidth, rng.Float64()*base.AreaHeight)
		res, _ := nn.BestFirst(tree, loc, base.CacheSize)
		ns := make([]core.POI, len(res))
		for j, rr := range res {
			ns[j] = pois[rr.Ref]
		}
		caches[i] = core.NewPeerCache(loc, ns)
	}
	// Index cache locations in a uniform grid (sim.PointGrid, on the shared
	// internal/grid layout) so each query scans only the cells within
	// transmission range instead of all nCaches locations. Indices are sorted back to
	// ascending cache order, so the gathered peer list is exactly what the
	// old O(#caches) scan produced.
	nearCaches := newCacheIndex(caches, bounds, base.TxRange)

	ks := []int{4, 6, 8, 10, 12, 14}
	points := make([]Fig17Point, len(ks))
	tasks := make([]RunTask, len(ks))
	for ki, k := range ks {
		ki, k := ki, k
		tasks[ki] = func() error {
			// Each k draws its workload from a seed derived from (base seed,
			// k), so the series is independent of both the other ks and the
			// execution order.
			rng := rand.New(rand.NewSource(base.Seed + opts.Seed + 17 + int64(k)*7919))
			var einnTotal, innTotal int64
			var verify core.VerifierScratch
			for qi := 0; qi < queries; qi++ {
				// A querying host always carries its own cached previous
				// result, so sample the query displaced from a cache location
				// by the travel since that query was cached.
				home := caches[rng.Intn(nCaches)]
				drift := rng.Float64() * base.TxRange
				angle := rng.Float64() * 2 * math.Pi
				q := home.QueryLoc.Add(geom.Pt(drift*math.Cos(angle), drift*math.Sin(angle)))
				peers := nearCaches(q, base.TxRange)
				heap := core.NewResultHeap(k)
				verify.VerifySinglePeers(q, k, peers, heap)
				if heap.Complete() {
					// Peer-resolved queries never reach the server; Figure 17
					// measures server-side behavior, so draw another query.
					qi--
					continue
				}
				b := heap.Bounds()
				// Cache policy 2 (§4.1): a query that reaches the server asks
				// for C_Size nearest neighbors to refill the host cache. The
				// k-NN answer itself only needs the top k, which the upper
				// bound guarantees; EINN therefore truncates the deep refill
				// search at the bound while the original INN pages all the way
				// to the C_Size-th neighbor.
				want := base.CacheSize
				if k > want {
					want = k
				}

				_, innPages := nn.BestFirst(tree, q, want)
				innTotal += innPages
				_, einnPages := nn.EINN(tree, q, want-heap.NumCertain(), b)
				einnTotal += einnPages
			}
			n := float64(queries)
			einn, inn := float64(einnTotal)/n, float64(innTotal)/n
			red := 0.0
			if inn > 0 {
				red = 100 * (inn - einn) / inn
			}
			points[ki] = Fig17Point{
				K: k, EINNPages: einn, INNPages: inn, Reduction: red,
			}
			return nil
		}
	}
	if err := RunParallel(tasks, opts.Workers); err != nil {
		return Fig17Result{}, err
	}
	return Fig17Result{Region: r, Points: points}, nil
}

// ---------------------------------------------------------------------------
// Text rendering.

// FormatFigure renders a figure result as an aligned text table. With
// repeated runs (any nonzero Std field) every value is shown as mean±std.
func FormatFigure(fr FigureResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure %s — %s (%s)\n", fr.Figure, fr.Region, fr.Area)
	fmt.Fprintf(&b, "%-26s %14s %14s %14s %16s %14s\n",
		fr.XLabel, "single-peer %", "multi-peer %", "server %", "bytes/query", "pages/srv-query")
	withStd := false
	for _, p := range fr.Points {
		if p.StdSingle != 0 || p.StdMulti != 0 || p.StdServer != 0 || p.StdComm != 0 || p.StdPages != 0 {
			withStd = true
			break
		}
	}
	for _, p := range fr.Points {
		if withStd {
			fmt.Fprintf(&b, "%-26.0f %14s %14s %14s %16s %14s\n", p.X,
				fmt.Sprintf("%.1f±%.1f", p.ShareSingle, p.StdSingle),
				fmt.Sprintf("%.1f±%.1f", p.ShareMulti, p.StdMulti),
				fmt.Sprintf("%.1f±%.1f", p.ShareServer, p.StdServer),
				fmt.Sprintf("%.0f±%.0f", p.CommBytes, p.StdComm),
				fmt.Sprintf("%.1f±%.1f", p.ServerPages, p.StdPages))
		} else {
			fmt.Fprintf(&b, "%-26.0f %14.1f %14.1f %14.1f %16.0f %14.1f\n",
				p.X, p.ShareSingle, p.ShareMulti, p.ShareServer, p.CommBytes, p.ServerPages)
		}
	}
	return b.String()
}

// FormatFig17 renders the Figure 17 comparison as an aligned text table.
func FormatFig17(fr Fig17Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 17 — EINN vs INN page accesses (%s)\n", fr.Region)
	fmt.Fprintf(&b, "%-6s %14s %14s %12s\n", "k", "EINN pages", "INN pages", "reduction %")
	for _, p := range fr.Points {
		fmt.Fprintf(&b, "%-6d %14.2f %14.2f %12.1f\n", p.K, p.EINNPages, p.INNPages, p.Reduction)
	}
	return b.String()
}

// SortPointsByX orders sweep points ascending (sweeps already run in order,
// but external callers composing results may need it).
func SortPointsByX(pts []SeriesPoint) {
	sort.Slice(pts, func(i, j int) bool { return pts[i].X < pts[j].X })
}
