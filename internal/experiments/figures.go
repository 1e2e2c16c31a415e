package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
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

// FigureResult is one sub-figure: a sweep for one region. A Figure document
// carries the area and x label once, for all of its sub-figures.
type FigureResult struct {
	Figure string        `json:"subfigure"` // e.g. "9a"
	Region Region        `json:"region"`
	Area   Area          `json:"-"`
	XLabel string        `json:"-"`
	Points []SeriesPoint `json:"points"`
}

// Figure is the document of one of Figures 9–16 (results/fig<N>.txt and
// .json): a sweep's sub-figures, one per region in Regions order.
type Figure struct {
	Figure  string         `json:"figure"` // e.g. "9"
	Area    Area           `json:"area"`
	XLabel  string         `json:"x_label"`
	Regions []FigureResult `json:"regions"`
}

// SweepFigure runs sweep on every region of area a, in Regions order.
func SweepFigure(sweep func(Region, Area, Options) (FigureResult, error), a Area, opts Options) (Figure, error) {
	frs, err := eachRegion(func(r Region) (FigureResult, error) { return sweep(r, a, opts) })
	if err != nil {
		return Figure{}, err
	}
	return Figure{Figure: strings.TrimRight(frs[0].Figure, "abc"), Area: a, XLabel: frs[0].XLabel, Regions: frs}, nil
}

// Name implements Document.
func (f Figure) Name() string { return "fig" + f.Figure }

// Text implements Document: each sub-figure's FormatFigure table and a
// blank line.
func (f Figure) Text() string {
	var b strings.Builder
	for _, fr := range f.Regions {
		fr.Area, fr.XLabel = f.Area, f.XLabel
		b.WriteString(FormatFigure(fr) + "\n")
	}
	return b.String()
}

// Options tunes how the experiment runners execute.
type Options struct {
	// DurationScale divides the paper's simulated durations, as
	// Area.DurationScale resolves it: 0 means the area's committed scale.
	DurationScale float64
	// HostScale optionally divides host counts and query rates for smoke
	// runs (0 or 1 = faithful densities).
	HostScale float64
	// Workers is the core budget of a runner (0 = GOMAXPROCS, 1 =
	// sequential). WorkerBudget splits it between concurrent runs and the
	// construction and query workers inside each; any value produces
	// bit-identical results.
	Workers int
	// Repeats runs every sweep point with this many independent seeds and
	// reports the mean shares plus their sample standard deviation in the
	// SeriesPoint Std fields. 0 or 1 = a single run per point (the
	// FreeMovementComparison study defaults to 3 — its effect is below
	// single-run noise).
	Repeats int
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

// runSweep executes opts.Repeats simulations per sweep value on region r of
// area a, mutating its base config through mut, and labels the series
// sub-figure fig (2×2 mi) or fig+1 (30×30 mi) of r.
func runSweep(r Region, a Area, opts Options, fig int, xLabel string, xs []float64, mut func(cfg *sim.Config, x float64)) (FigureResult, error) {
	repeats := opts.repeats()
	runs := make([]worldRun, 0, len(xs)*repeats)
	for i, x := range xs {
		for rep := range repeats {
			runs = append(runs, worldRun{region: r, area: a, point: i, rep: rep,
				mut: func(cfg *sim.Config) { mut(cfg, x) }})
		}
	}
	ms, err := runWorlds(runs, opts, nil)
	if err != nil {
		return FigureResult{}, err
	}
	if a == Area30mi {
		fig++
	}
	fr := FigureResult{Figure: strconv.Itoa(fig) + subfig(r), Region: r, Area: a, XLabel: xLabel,
		Points: make([]SeriesPoint, len(xs))}
	for i, x := range xs {
		fr.Points[i] = aggregateShares(x, ms[i*repeats:(i+1)*repeats])
	}
	return fr, nil
}

// TransmissionRangeSweep reproduces Figures 9 (2×2 mi) and 10 (30×30 mi):
// the wireless transmission range varies from 10/20 m to 200 m.
func TransmissionRangeSweep(r Region, a Area, opts Options) (FigureResult, error) {
	xs := []float64{20, 40, 60, 80, 100, 120, 140, 160, 180, 200}
	return runSweep(r, a, opts, 9, "Transmission Range (m)", xs, func(cfg *sim.Config, x float64) {
		cfg.TxRange = x
	})
}

// CacheCapacitySweep reproduces Figures 11 and 12: the per-host cache
// capacity varies (1–9 in the small area, 4–20 in the large one).
func CacheCapacitySweep(r Region, a Area, opts Options) (FigureResult, error) {
	xs := []float64{1, 3, 5, 7, 9}
	if a == Area30mi {
		xs = []float64{4, 8, 12, 16, 20}
	}
	return runSweep(r, a, opts, 11, "Number of Cached Items", xs, func(cfg *sim.Config, x float64) {
		cfg.CacheSize = int(x)
	})
}

// VelocitySweep reproduces Figures 13 and 14: the host movement velocity
// varies from 10 to 50 mph.
func VelocitySweep(r Region, a Area, opts Options) (FigureResult, error) {
	xs := []float64{10, 20, 30, 40, 50}
	return runSweep(r, a, opts, 13, "Mobile Host Speed (mph)", xs, func(cfg *sim.Config, x float64) {
		cfg.Velocity = x * MPH
	})
}

// KSweep reproduces Figures 15 and 16: the requested neighbor count k is
// fixed per sweep point (1–9 in the small area, 3–15 in the large one).
func KSweep(r Region, a Area, opts Options) (FigureResult, error) {
	xs := []float64{1, 3, 5, 7, 9}
	if a == Area30mi {
		xs = []float64{3, 6, 9, 12, 15}
	}
	return runSweep(r, a, opts, 15, "Number of k", xs, func(cfg *sim.Config, x float64) {
		cfg.KMin, cfg.KMax = int(x), int(x)
	})
}

// FreeComparisonRow is one region×area row of the §4.3 comparison.
type FreeComparisonRow struct {
	Region   Region  `json:"region"`
	Area     Area    `json:"area"`
	RoadSQRR float64 `json:"road_sqrr_pct"`
	FreeSQRR float64 `json:"free_sqrr_pct"`
	Delta    float64 `json:"delta_pct"`
}

// FreeStudy is the §4.3 document of one area (results/free2mi and
// results/free30mi): a row per region, in Regions order.
type FreeStudy struct {
	Study string              `json:"study"`
	Rows  []FreeComparisonRow `json:"rows"`
}

// FreeMovementStudy runs FreeMovementComparison on every region of area a.
func FreeMovementStudy(a Area, opts Options) (FreeStudy, error) {
	rows, err := eachRegion(func(r Region) (FreeComparisonRow, error) { return FreeMovementComparison(r, a, opts) })
	return FreeStudy{Study: "free-movement-vs-road-network", Rows: rows}, err
}

// Name implements Document: free2mi or free30mi, after the rows' area.
func (d FreeStudy) Name() string {
	if d.Rows[0].Area == Area30mi {
		return "free30mi"
	}
	return "free2mi"
}

// Text implements Document.
func (d FreeStudy) Text() string {
	var b strings.Builder
	b.WriteString("Section 4.3 — free movement vs road network mode (server share %)\n")
	fmt.Fprintf(&b, "%-22s %-10s %12s %12s %10s\n", "region", "area", "road SQRR", "free SQRR", "delta")
	for _, r := range d.Rows {
		fmt.Fprintf(&b, "%-22s %-10s %12.1f %12.1f %10.1f\n", r.Region, r.Area, r.RoadSQRR, r.FreeSQRR, r.Delta)
	}
	b.WriteString("\n")
	return b.String()
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
			runs = append(runs, worldRun{region: r, area: a, rep: rep,
				mut: func(cfg *sim.Config) { cfg.Mode = mode }})
		}
	}
	ms, err := runWorlds(runs, opts, nil)
	if err != nil {
		return FreeComparisonRow{}, err
	}
	road, _ := meanStd(ms[:opts.Repeats], sim.Metrics.SQRR)
	free, _ := meanStd(ms[opts.Repeats:], sim.Metrics.SQRR)
	return FreeComparisonRow{Region: r, Area: a,
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

// eachRegion runs study on every region, in Regions order.
func eachRegion[T any](study func(Region) (T, error)) ([]T, error) {
	out := make([]T, 0, len(Regions))
	for _, r := range Regions {
		v, err := study(r)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
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
	Region Region       `json:"region"`
	Points []Fig17Point `json:"points"`
}

// Fig17 is the Figure 17 document (results/fig17.txt and .json): a series
// per region, in Regions order.
type Fig17 struct {
	Figure  string        `json:"figure"`
	Regions []Fig17Result `json:"regions"`
}

// Figure17 runs EINNvsINN on every region's 30×30 mi POI set.
func Figure17(queries int, opts Options) (Fig17, error) {
	frs, err := eachRegion(func(r Region) (Fig17Result, error) { return EINNvsINN(r, Area30mi, queries, opts) })
	return Fig17{Figure: "17", Regions: frs}, err
}

// Name implements Document.
func (Fig17) Name() string { return "fig17" }

// Text implements Document: a table and a blank line per region.
func (d Fig17) Text() string {
	var b strings.Builder
	for _, fr := range d.Regions {
		fmt.Fprintf(&b, "Figure 17 — EINN vs INN page accesses (%s)\n", fr.Region)
		fmt.Fprintf(&b, "%-6s %14s %14s %12s\n", "k", "EINN pages", "INN pages", "reduction %")
		for _, p := range fr.Points {
			fmt.Fprintf(&b, "%-6d %14.2f %14.2f %12.1f\n", p.K, p.EINNPages, p.INNPages, p.Reduction)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// EINNvsINN reproduces Figure 17: for each k, server-bound queries are drawn
// from the region's scene (as in §4.4) — peer verification against the
// scene's cached results gives the realistic mix of pruning bounds a running
// system produces — and the server executes each with both INN (no bounds)
// and EINN (with the client's bounds), counting R*-tree node accesses.
func EINNvsINN(r Region, a Area, queries int, opts Options) (Fig17Result, error) {
	base := BaseConfig(r, a)
	s := newScene(base, 2000, rand.New(rand.NewSource(sweepSeed(base.Seed+17, 0, 0))))
	ks := []int{4, 6, 8, 10, 12, 14}
	points := make([]Fig17Point, len(ks))
	tasks := make([]RunTask, len(ks))
	for ki, k := range ks {
		tasks[ki] = func() error {
			// Each k draws its queries from its own stream, so the series is
			// independent of the other ks and of the execution order.
			rng := rand.New(rand.NewSource(sweepSeed(base.Seed+17, 0, k)))
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
