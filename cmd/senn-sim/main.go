// Command senn-sim runs one simulation of the sharing-based nearest-neighbor
// system and prints its steady-state metrics: the share of queries resolved
// by a single peer, by multiple peers, and by the server (SQRR), plus the
// server's R*-tree page accesses (PAR).
//
// The world is one of the paper's parameter sets (-region, -area; Tables 3
// and 4), its duration divided by -scale (by default the area's committed
// scale, the one the results files ran at; below 1 it runs longer than the
// paper) and thinned by -hostscale. -tx, -cache, -velocity, -k and -free
// override single parameters; -series prints the query-resolution mix per
// window, warm-up included; -seed and -cpuprofile do what they say.
//
// Usage:
//
//	senn-sim [flags]
//
// Examples:
//
//	senn-sim -region la -area 2mi
//	senn-sim -region riverside -area 30mi -scale 100 -tx 100
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"

	"repro/internal/experiments"
	"repro/internal/sim"
)

func main() {
	var (
		region  = flag.String("region", "la", "parameter set: la, suburbia, riverside")
		area    = flag.String("area", "2mi", "simulation area: 2mi or 30mi")
		scale   = flag.Float64("scale", 0, "duration scale divisor, any positive number (0 = the committed scale: 1 at 2mi, 10 at 30mi; 1 = full paper-length run; below 1 = longer)")
		hostSc  = flag.Float64("hostscale", 1, "host-count scale divisor for smoke runs")
		tx      = flag.Float64("tx", -1, "override transmission range (m)")
		cacheSz = flag.Int("cache", -1, "override cache capacity")
		vel     = flag.Float64("velocity", -1, "override host velocity (mph)")
		k       = flag.Int("k", -1, "override requested neighbor count (fixes k)")
		free    = flag.Bool("free", false, "use free movement instead of the road network")
		series  = flag.Float64("series", 0, "print a query-resolution time series with this window (seconds)")
		seed    = flag.Int64("seed", 1, "random seed")
		cpuprof = flag.String("cpuprofile", "", "write a CPU profile to this file")
	)
	flag.Parse()
	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	r, err := experiments.ParseRegion(*region)
	if err != nil {
		fatal(err)
	}
	a, err := experiments.ParseArea(*area)
	if err != nil {
		fatal(err)
	}
	cfg := experiments.ScaleHosts(
		experiments.ScaleDuration(experiments.BaseConfig(r, a), a.DurationScale(*scale)), *hostSc)
	cfg.Seed = *seed
	if *tx >= 0 {
		cfg.TxRange = *tx
	}
	if *cacheSz > 0 {
		cfg.CacheSize = *cacheSz
	}
	if *vel > 0 {
		cfg.Velocity = *vel * experiments.MPH
	}
	if *k > 0 {
		cfg.KMin, cfg.KMax = *k, *k
	}
	if *free {
		cfg.Mode = sim.ModeFreeMovement
	}
	if *series > 0 {
		cfg.SeriesWindow = *series
	}

	w, err := sim.New(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("running %s: %d hosts, %d POIs, %.0f q/min, tx=%.0f m, cache=%d, k=[%d,%d], %.0f s simulated\n",
		cfg.Mode, cfg.NumHosts, cfg.NumPOIs, cfg.QueriesPerMinute,
		cfg.TxRange, cfg.CacheSize, cfg.KMin, cfg.KMax, cfg.Duration)
	m := w.Run()
	fmt.Printf("\nsteady-state results (%.0f s measured):\n", m.MeasuredSeconds)
	fmt.Printf("  total queries        %d\n", m.TotalQueries)
	fmt.Printf("  single-peer solved   %6.1f %%\n", m.ShareSingle())
	fmt.Printf("  multi-peer solved    %6.1f %%\n", m.ShareMulti())
	fmt.Printf("  server solved (SQRR) %6.1f %%\n", m.SQRR())
	if m.SolvedUncertain > 0 {
		fmt.Printf("  uncertain accepted   %6.1f %%\n", m.ShareUncertain())
	}
	fmt.Printf("  server page accesses %d (%.1f per server query)\n",
		m.ServerPageAccesses, m.PagesPerServerQuery())
	fmt.Printf("  p2p overhead         %d messages, %.0f bytes/query\n",
		m.PeerMessages, m.PeerBytesPerQuery())
	fmt.Printf("\nhost state at end of run:\n  %s\n",
		strings.ReplaceAll(w.Footprint().String(), "\n", "\n  "))

	if pts := w.Series(); len(pts) > 0 {
		fmt.Printf("\ntime series (window %.0f s; includes warm-up):\n", *series)
		fmt.Printf("%-14s %8s %8s %8s %8s\n", "window", "queries", "single%", "multi%", "server%")
		for _, p := range pts {
			if p.Queries == 0 {
				continue
			}
			pct := func(n int64) float64 { return 100 * float64(n) / float64(p.Queries) }
			fmt.Printf("%6.0f-%-7.0f %8d %8.1f %8.1f %8.1f\n",
				p.Start, p.End, p.Queries, pct(p.Single), pct(p.Multi), pct(p.Server))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "senn-sim:", err)
	os.Exit(1)
}
