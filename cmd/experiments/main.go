// Command experiments regenerates the paper's evaluation figures. Every
// sub-figure of Figures 9–17 has a runner; by default all of them execute
// with durations scaled down 30x from the paper's (1 h and 5 h); pass
// -scale 1 for full-length runs.
//
// Usage:
//
//	experiments [-fig 9|10|11|12|13|14|15|16|17|free|uncertain|diskio|all]
//	            [-scale N] [-queries N] [-area 2mi|30mi] [-chart]
//	            [-parallel N] [-repeats N] [-json dir]
//	            [-cpuprofile file] [-memprofile file]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"

	"repro/internal/experiments"
	"repro/internal/plot"
)

func main() {
	var (
		fig      = flag.String("fig", "all", "figure to regenerate: 9..17, free (the §4.3 comparison), or all")
		scale    = flag.Float64("scale", 30, "duration scale divisor (1 = full paper-length runs)")
		hostSc   = flag.Float64("hostscale", 1, "host-count scale divisor for smoke runs")
		queries  = flag.Int("queries", 300, "query count per k for the Figure 17 study")
		seed     = flag.Int64("seed", 0, "seed offset applied to every run")
		areaSel  = flag.String("area", "", "restrict the free comparison to one area: 2mi or 30mi")
		chart    = flag.Bool("chart", false, "render ASCII charts next to the numeric tables")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0),
			"core budget per figure: concurrent simulation runs × movement and query workers per run (1 = fully sequential; output is identical either way)")
		repeats = flag.Int("repeats", 0,
			"independent runs per sweep point, reported as mean ± stddev in the JSON output (0 = runner default: 1 for sweeps, 3 for the free comparison)")
		jsonDir = flag.String("json", "",
			"directory to also write machine-readable results into (one JSON file per figure, stable key order)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC() // report live steady-state objects, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}
	opts := experiments.Options{
		DurationScale: *scale, HostScale: *hostSc, Seed: *seed,
		Workers: *parallel, Repeats: *repeats,
	}
	persist := func(err error) {
		if err != nil {
			fatal(err)
		}
	}

	want := func(name string) bool { return *fig == "all" || *fig == name }
	type sweepFn func(experiments.Region, experiments.Area, experiments.Options) (experiments.FigureResult, error)
	sweeps := []struct {
		name string
		area experiments.Area
		fn   sweepFn
	}{
		{"9", experiments.Area2mi, experiments.TransmissionRangeSweep},
		{"10", experiments.Area30mi, experiments.TransmissionRangeSweep},
		{"11", experiments.Area2mi, experiments.CacheCapacitySweep},
		{"12", experiments.Area30mi, experiments.CacheCapacitySweep},
		{"13", experiments.Area2mi, experiments.VelocitySweep},
		{"14", experiments.Area30mi, experiments.VelocitySweep},
		{"15", experiments.Area2mi, experiments.KSweep},
		{"16", experiments.Area30mi, experiments.KSweep},
	}
	// ran: some study executed; timed: one of them was a duration-scaled
	// simulation (the sweeps, free, uncertain), the only output -scale shortens.
	ran, timed := false, false
	for _, s := range sweeps {
		if !want(s.name) {
			continue
		}
		ran, timed = true, true
		frs := make([]experiments.FigureResult, 0, len(experiments.Regions))
		for _, r := range experiments.Regions {
			fr, err := s.fn(r, s.area, opts)
			if err != nil {
				fatal(err)
			}
			fmt.Println(experiments.FormatFigure(fr))
			if *chart {
				fmt.Println(figureChart(fr))
			}
			frs = append(frs, fr)
		}
		if *jsonDir != "" {
			persist(experiments.WriteFigureJSON(*jsonDir, frs))
		}
	}
	if want("free") {
		ran, timed = true, true
		areas := []experiments.Area{experiments.Area2mi, experiments.Area30mi}
		switch *areaSel {
		case "2mi":
			areas = areas[:1]
		case "30mi":
			areas = areas[1:]
		}
		var rows []experiments.FreeComparisonRow
		fmt.Println("Section 4.3 — free movement vs road network mode (server share %)")
		fmt.Printf("%-22s %-10s %12s %12s %10s\n", "region", "area", "road SQRR", "free SQRR", "delta")
		for _, a := range areas {
			for _, r := range experiments.Regions {
				row, err := experiments.FreeMovementComparison(r, a, opts)
				if err != nil {
					fatal(err)
				}
				fmt.Printf("%-22s %-10s %12.1f %12.1f %10.1f\n", row.Region, row.Area, row.RoadSQRR, row.FreeSQRR, row.Delta)
				rows = append(rows, row)
			}
		}
		fmt.Println()
		if *jsonDir != "" {
			persist(experiments.WriteFreeJSON(*jsonDir, rows))
		}
	}
	if want("uncertain") {
		ran, timed = true, true
		fmt.Println("Uncertain-answer quality (AcceptUncertain on; extension study)")
		fmt.Printf("%-22s %12s %12s %12s %12s\n",
			"region", "uncertain %", "server %", "precision", "rank acc.")
		uqs, err := experiments.UncertainQuality(experiments.Area2mi, opts)
		if err != nil {
			fatal(err)
		}
		for _, uq := range uqs {
			fmt.Printf("%-22s %12.1f %12.1f %12.2f %12.2f\n",
				uq.Region, uq.UncertainShare, uq.ServerShare, uq.Precision, uq.RankAccuracy)
		}
		fmt.Println()
		if *jsonDir != "" {
			persist(experiments.WriteUncertainJSON(*jsonDir, uqs))
		}
	}
	if want("diskio") {
		ran = true
		fr, err := experiments.DiskIOStudy(experiments.LosAngeles, *queries, opts)
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.FormatDiskIO(fr))
		if *jsonDir != "" {
			persist(experiments.WriteDiskIOJSON(*jsonDir, fr))
		}
	}
	if want("17") {
		ran = true
		frs := make([]experiments.Fig17Result, 0, len(experiments.Regions))
		for _, r := range experiments.Regions {
			fr, err := experiments.EINNvsINN(r, experiments.Area30mi, *queries, opts)
			if err != nil {
				fatal(err)
			}
			fmt.Println(experiments.FormatFig17(fr))
			frs = append(frs, fr)
		}
		if *jsonDir != "" {
			persist(experiments.WriteFig17JSON(*jsonDir, frs))
		}
	}
	if !ran {
		fatal(fmt.Errorf("unknown figure %q; want one of 9..17, free, uncertain, diskio, all", *fig))
	}
	if timed && *scale > 1 {
		fmt.Printf("note: durations scaled down %.0fx from the paper's; pass -scale 1 for full runs\n", *scale)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}

// figureChart renders a figure's three share series as an ASCII chart.
func figureChart(fr experiments.FigureResult) string {
	labels := make([]string, len(fr.Points))
	single := make([]float64, len(fr.Points))
	multi := make([]float64, len(fr.Points))
	server := make([]float64, len(fr.Points))
	for i, p := range fr.Points {
		labels[i] = strconv.FormatFloat(p.X, 'f', -1, 64)
		single[i] = p.ShareSingle
		multi[i] = p.ShareMulti
		server[i] = p.ShareServer
	}
	return plot.Chart{
		Title:   fmt.Sprintf("Figure %s — %% of queries (y) vs %s (x)", fr.Figure, fr.XLabel),
		XLabels: labels,
		YMin:    0, YMax: 100,
		Series: []plot.Series{
			{Name: "single-peer", Points: single, Marker: '1'},
			{Name: "multi-peer", Points: multi, Marker: 'm'},
			{Name: "server", Points: server, Marker: 'S'},
		},
	}.Render()
}
