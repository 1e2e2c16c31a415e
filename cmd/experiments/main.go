// Command experiments regenerates the paper's evaluation figures. Each
// study is one results document, named as its file: -fig fig9 … fig17,
// free2mi, free30mi, uncertain, diskio or all. It prints the document's
// table (and the study's note line) and, with -json, writes its JSON, so
// `experiments -fig <name> -json out > out/<name>.txt` writes
// results/<name>.txt and .json byte for byte. Timed studies run at their
// area's committed duration scale (1 at 2x2 mi, 10 at 30x30 mi); -scale
// overrides it with any positive divisor, 1 being the paper's full length
// and less than 1 longer than the paper.
//
// Usage:
//
//	experiments [-fig name|all] [-scale N] [-hostscale N] [-parallel N]
//	            [-json dir] [-cpuprofile file] [-memprofile file]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/experiments"
)

func main() {
	var (
		fig      = flag.String("fig", "all", "results file to regenerate: fig9..fig17, free2mi, free30mi, uncertain, diskio, or all")
		scale    = flag.Float64("scale", 0, "duration scale divisor, any positive number (0 = the committed scale: 1 at 2x2 mi, 10 at 30x30 mi; 1 = full paper-length runs; below 1 = longer)")
		hostSc   = flag.Float64("hostscale", 1, "host-count scale divisor for smoke runs")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0),
			"core budget per figure: concurrent simulation runs × construction and query workers per run (1 = fully sequential; output is identical either way)")
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
	opts := experiments.Options{DurationScale: *scale, HostScale: *hostSc, Workers: *parallel}
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
		fmt.Print(doc.Text() + s.Note(opts))
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
