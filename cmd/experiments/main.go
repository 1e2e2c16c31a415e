// Command experiments regenerates the paper's evaluation figures. Every
// sub-figure of Figures 9–17 has a runner; by default all of them execute
// with durations scaled down 30x from the paper's (1 h and 5 h); pass
// -scale 1 for full-length runs. Each study prints the table of one results
// document (-fig free: one per area) and, with -json, writes its JSON.
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
		areaSel  = flag.String("area", "", "restrict the free comparison to one area: 2mi or 30mi (empty: both)")
		chart    = flag.Bool("chart", false, "render ASCII charts next to the numeric tables")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0),
			"core budget per figure: concurrent simulation runs × construction and query workers per run (1 = fully sequential; output is identical either way)")
		repeats = flag.Int("repeats", 0,
			"independent runs per sweep point, reported as mean ± stddev in the JSON output (0 = runner default: 1 for sweeps, 3 for the free comparison)")
		jsonDir = flag.String("json", "",
			"directory to also write machine-readable results into (one JSON file per table, stable key order)")
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
	// A study is one results document; -fig picks studies by name and -area
	// picks one of the two §4.3 documents (empty leaves both).
	area := *areaSel
	if area != "" {
		if _, err := experiments.ParseArea(area); err != nil {
			fatal(err)
		}
	}
	type sweepFn func(experiments.Region, experiments.Area, experiments.Options) (experiments.FigureResult, error)
	figure := func(fn sweepFn, a experiments.Area) func() (experiments.Document, error) {
		return func() (experiments.Document, error) { return document(experiments.SweepFigure(fn, a, opts)) }
	}
	free := func(a experiments.Area) func() (experiments.Document, error) {
		return func() (experiments.Document, error) { return document(experiments.FreeMovementStudy(a, opts)) }
	}
	studies := []struct {
		name, area string
		timed      bool // a duration-scaled simulation, the only output -scale shortens
		run        func() (experiments.Document, error)
	}{
		{"9", "", true, figure(experiments.TransmissionRangeSweep, experiments.Area2mi)},
		{"10", "", true, figure(experiments.TransmissionRangeSweep, experiments.Area30mi)},
		{"11", "", true, figure(experiments.CacheCapacitySweep, experiments.Area2mi)},
		{"12", "", true, figure(experiments.CacheCapacitySweep, experiments.Area30mi)},
		{"13", "", true, figure(experiments.VelocitySweep, experiments.Area2mi)},
		{"14", "", true, figure(experiments.VelocitySweep, experiments.Area30mi)},
		{"15", "", true, figure(experiments.KSweep, experiments.Area2mi)},
		{"16", "", true, figure(experiments.KSweep, experiments.Area30mi)},
		{"free", "2mi", true, free(experiments.Area2mi)},
		{"free", "30mi", true, free(experiments.Area30mi)},
		{"uncertain", "", true, func() (experiments.Document, error) {
			return document(experiments.UncertainQuality(experiments.Area2mi, opts))
		}},
		{"diskio", "", false, func() (experiments.Document, error) {
			return document(experiments.DiskIOStudy(experiments.LosAngeles, *queries, opts))
		}},
		{"17", "", false, func() (experiments.Document, error) {
			return document(experiments.Figure17(*queries, opts))
		}},
	}
	ran, timed := false, false
	for _, s := range studies {
		if *fig != "all" && *fig != s.name || area != "" && s.area != "" && s.area != area {
			continue
		}
		ran, timed = true, timed || s.timed
		doc, err := s.run()
		if err != nil {
			fatal(err)
		}
		text := doc.Text()
		if f, ok := doc.(experiments.Figure); ok && *chart {
			text = f.TextWith(figureChart)
		}
		fmt.Print(text)
		if *jsonDir != "" {
			if err := experiments.WriteJSON(*jsonDir, doc); err != nil {
				fatal(err)
			}
		}
	}
	if !ran {
		fatal(fmt.Errorf("unknown figure %q; want one of 9..17, free, uncertain, diskio, all", *fig))
	}
	if timed && *scale > 1 {
		fmt.Printf("note: durations scaled down %.0fx from the paper's; pass -scale 1 for full runs\n", *scale)
	}
}

// document widens a study's result to the Document it is.
func document[D experiments.Document](d D, err error) (experiments.Document, error) {
	return d, err
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
