package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/sim"
)

// SeriesPoint is one x position of a sweep with the three query-resolution
// shares the paper's Figures 9–16 plot, plus the communication-overhead and
// server page-access series the same runs produce. When Options.Repeats > 1
// every value is a mean over the repeated runs and the Std fields carry their
// sample standard deviations (zero for a single run, and then omitted from
// the persisted document).
type SeriesPoint struct {
	X           float64 `json:"x"`                      // swept parameter value
	ShareSingle float64 `json:"single_peer_pct"`        // % solved by a single peer
	ShareMulti  float64 `json:"multi_peer_pct"`         // % solved by multiple peers
	ShareServer float64 `json:"server_pct"`             // % solved by the server (SQRR)
	CommBytes   float64 `json:"comm_bytes_per_query"`   // mean P2P wire bytes per query
	ServerPages float64 `json:"pages_per_server_query"` // mean R*-tree page accesses per server-resolved query

	StdSingle float64 `json:"single_peer_std,omitempty"` // stddev of ShareSingle across repeats
	StdMulti  float64 `json:"multi_peer_std,omitempty"`  // stddev of ShareMulti across repeats
	StdServer float64 `json:"server_std,omitempty"`      // stddev of ShareServer across repeats
	StdComm   float64 `json:"comm_bytes_std,omitempty"`  // stddev of CommBytes across repeats
	StdPages  float64 `json:"pages_std,omitempty"`       // stddev of ServerPages across repeats
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
	// Workers is the core budget of a runner (0 = GOMAXPROCS, 1 =
	// sequential). WorkerBudget splits it between concurrent runs and the
	// movement and query workers inside each; any value produces
	// bit-identical results.
	Workers int
	// Repeats runs every sweep point with this many independent seeds and
	// reports the mean shares plus their sample standard deviation in the
	// SeriesPoint Std fields. 0 or 1 = a single run per point (the
	// FreeMovementComparison study defaults to 3 — its effect is below
	// single-run noise).
	Repeats int
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

// repeats resolves the effective per-point run count.
func (o Options) repeats() int {
	if o.Repeats < 1 {
		return 1
	}
	return o.Repeats
}

// aggregateShares folds the repeated runs of one x into its SeriesPoint.
func aggregateShares(x float64, ms []sim.Metrics) SeriesPoint {
	p := SeriesPoint{X: x}
	p.ShareSingle, p.StdSingle = meanStd(ms, sim.Metrics.ShareSingle)
	p.ShareMulti, p.StdMulti = meanStd(ms, sim.Metrics.ShareMulti)
	p.ShareServer, p.StdServer = meanStd(ms, sim.Metrics.SQRR)
	p.CommBytes, p.StdComm = meanStd(ms, sim.Metrics.PeerBytesPerQuery)
	p.ServerPages, p.StdPages = meanStd(ms, sim.Metrics.PagesPerServerQuery)
	return p
}

// meanStd returns the mean of f over ms and its sample standard deviation
// (zero for a single run).
func meanStd(ms []sim.Metrics, f func(sim.Metrics) float64) (mean, std float64) {
	n := float64(len(ms))
	for _, m := range ms {
		mean += f(m) / n
	}
	if len(ms) < 2 {
		return mean, 0
	}
	var v float64
	for _, m := range ms {
		d := f(m) - mean
		v += d * d
	}
	return mean, math.Sqrt(v / (n - 1))
}

// runSweep executes opts.Repeats simulations per sweep value, mutating the
// base config through mut.
func runSweep(base sim.Config, xs []float64, opts Options, mut func(cfg *sim.Config, x float64)) ([]SeriesPoint, error) {
	repeats := opts.repeats()
	runs := make([]worldRun, 0, len(xs)*repeats)
	for i, x := range xs {
		for rep := range repeats {
			runs = append(runs, worldRun{base: base, point: i, rep: rep,
				mut: func(cfg *sim.Config) { mut(cfg, x) }})
		}
	}
	ms, err := runWorlds(runs, opts, nil)
	if err != nil {
		return nil, err
	}
	pts := make([]SeriesPoint, len(xs))
	for i, x := range xs {
		pts[i] = aggregateShares(x, ms[i*repeats:(i+1)*repeats])
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
// (defaulting to 3 here rather than 1: the study is meaningless unaveraged),
// and repeat rep of both modes runs on the same seed.
func FreeMovementComparison(r Region, a Area, opts Options) (FreeComparisonRow, error) {
	if opts.Repeats < 1 {
		opts.Repeats = 3
	}
	var runs []worldRun
	for _, mode := range []sim.Mode{sim.ModeRoadNetwork, sim.ModeFreeMovement} {
		for rep := range opts.Repeats {
			runs = append(runs, worldRun{base: BaseConfig(r, a), rep: rep,
				mut: func(cfg *sim.Config) { cfg.Mode = mode }})
		}
	}
	ms, err := runWorlds(runs, opts, nil)
	if err != nil {
		return FreeComparisonRow{}, err
	}
	road, _ := meanStd(ms[:opts.Repeats], sim.Metrics.SQRR)
	free, _ := meanStd(ms[opts.Repeats:], sim.Metrics.SQRR)
	return FreeComparisonRow{Region: r.String(), Area: a.String(),
		RoadSQRR: road, FreeSQRR: free, Delta: road - free}, nil
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

// EINNvsINN reproduces Figure 17: for each k, server-bound queries are drawn
// from the region's scene (as in §4.4) — peer verification against the
// scene's cached results gives the realistic mix of pruning bounds a running
// system produces — and the server executes each with both INN (no bounds)
// and EINN (with the client's bounds), counting R*-tree node accesses.
func EINNvsINN(r Region, a Area, queries int, opts Options) (Fig17Result, error) {
	base := BaseConfig(r, a)
	s := newScene(base, 2000, rand.New(rand.NewSource(sweepSeed(base.Seed+17, opts, 0, 0))))
	ks := []int{4, 6, 8, 10, 12, 14}
	points := make([]Fig17Point, len(ks))
	tasks := make([]RunTask, len(ks))
	for ki, k := range ks {
		tasks[ki] = func() error {
			// Each k draws its queries from its own stream, so the series is
			// independent of the other ks and of the execution order.
			rng := rand.New(rand.NewSource(sweepSeed(base.Seed+17, opts, 0, k)))
			var einnTotal, innTotal int64
			var verify core.VerifierScratch
			for range queries {
				// EINN truncates the deep refill search at the bounds while
				// the original INN pages all the way to the max(C_Size, k)-th
				// neighbor.
				q, b, want := s.serverQuery(rng, &verify, k)
				_, innPages := nn.BestFirst(s.tree, q, max(base.CacheSize, k))
				innTotal += innPages
				_, einnPages := nn.EINN(s.tree, q, want, b)
				einnTotal += einnPages
			}
			n := float64(queries)
			einn, inn := float64(einnTotal)/n, float64(innTotal)/n
			red := 0.0
			if inn > 0 {
				red = 100 * (inn - einn) / inn
			}
			points[ki] = Fig17Point{K: k, EINNPages: einn, INNPages: inn, Reduction: red}
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
