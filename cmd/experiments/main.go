// Command experiments regenerates the paper's evaluation figures. Each
// study is one results document, named as its file: -fig fig9 … fig17,
// free2mi, free30mi, uncertain, diskio or all. It prints the document's
// table (and the study's note line) and, with -json, writes its JSON, so
// `experiments -fig <name> -json out > out/<name>.txt` writes
// results/<name>.txt and .json byte for byte. Timed studies run at their
// area's committed duration scale (1 at 2x2 mi, 10 at 30x30 mi); -scale
// overrides it, 1 being the paper's full length.
//
// Usage:
//
//	experiments [-fig name|all] [-scale N] [-hostscale N] [-seed N] [-chart]
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
		fig      = flag.String("fig", "all", "results file to regenerate: fig9..fig17, free2mi, free30mi, uncertain, diskio, or all")
		scale    = flag.Float64("scale", 0, "duration scale divisor (0 = the committed scale: 1 at 2x2 mi, 10 at 30x30 mi; 1 = full paper-length runs)")
		hostSc   = flag.Float64("hostscale", 1, "host-count scale divisor for smoke runs")
		seed     = flag.Int64("seed", 0, "seed offset applied to every run")
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
	ran := false
	for _, s := range experiments.Studies {
		if *fig != "all" && *fig != s.Name {
			continue
		}
		ran = true
		doc, err := s.Run(opts)
		if err != nil {
			fatal(err)
		}
		text := doc.Text()
		if f, ok := doc.(experiments.Figure); ok && *chart {
			text = f.TextWith(figureChart)
		}
		fmt.Print(text + s.Note(opts))
		if *jsonDir != "" {
			if err := experiments.WriteJSON(*jsonDir, doc); err != nil {
				fatal(err)
			}
		}
	}
	if !ran {
		fatal(fmt.Errorf("unknown figure %q; want fig9..fig17, free2mi, free30mi, uncertain, diskio, or all", *fig))
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
