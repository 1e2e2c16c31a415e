package experiments

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/sim"
)

// RunTask is one independent unit of an experiment: typically "build one
// sim.World and run it", writing its result into a caller-owned slot. Tasks
// must not share mutable state — each derives everything it needs (including
// its random stream) from the task index, so the outcome is identical
// whatever order or interleaving the pool executes them in.
type RunTask func() error

// RunParallel executes tasks across a fixed pool of workers and returns the
// first error in task order (not completion order). workers <= 0 means
// runtime.GOMAXPROCS(0); workers == 1 degenerates to a plain sequential
// loop. Because every task owns its result slot and its seed, the output is
// bit-identical for any worker count — the determinism contract the figure
// suite relies on (verified by TestParallelMatchesSequential*).
func RunParallel(tasks []RunTask, workers int) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if workers <= 1 {
		for _, t := range tasks {
			if err := t(); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(tasks))
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = tasks[i]()
			}
		}()
	}
	for i := range tasks {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// WorkerBudget splits a core budget between the outer fan-out of
// independent runs (RunParallel) and the workers inside each run, so that
// outer × inner ≤ budget: a wide sweep saturates the budget with whole runs
// (inner = 1), a sweep with fewer runs than cores gives the spare cores to
// each run. A world's movement and query phases alternate within a step and
// never overlap, so both get the same inner count (sim.Config.Workers and
// sim.Config.QueryWorkers). budget <= 0 means runtime.GOMAXPROCS(0). Every
// level is deterministic, so the split decides wall-clock time only.
func WorkerBudget(budget, tasks int) (outer, inner int) {
	if budget <= 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	outer = min(budget, max(tasks, 1))
	return outer, max(budget/outer, 1)
}

// sweepSeed is the one seed rule of the package: repeat rep of sweep point
// i draws base + Options.Seed + i·10⁶ + rep·7919. Points are independent
// samples, repeats of one point get distinct seeds, and a study whose runs
// are paired — the §4.3 comparison's two modes, the uncertain study's
// regions, a Figure 17 scene — passes point 0.
func sweepSeed(base int64, opts Options, i, rep int) int64 {
	return base + opts.Seed + int64(i)*1_000_000 + int64(rep)*7919
}

// worldRun is one simulation a study launches.
type worldRun struct {
	base       sim.Config            // a BaseConfig, before scaling
	point, rep int                   // the sweepSeed indices
	mut        func(cfg *sim.Config) // the study's change to the config
}

// runWorlds is the only place a study builds and runs a sim.World. Each
// run's config is its base scaled by opts, seeded by sweepSeed, given the
// inner worker budget, then changed by the run's mut; observe, when non-nil,
// sees the world before it runs (the uncertain study installs its audit
// there). The runs fan across the outer budget and run i's metrics land in
// slot i, so the result does not depend on the schedule.
func runWorlds(runs []worldRun, opts Options, observe func(i int, w *sim.World)) ([]sim.Metrics, error) {
	opts = opts.normalize()
	outer, inner := WorkerBudget(opts.Workers, len(runs))
	out := make([]sim.Metrics, len(runs))
	tasks := make([]RunTask, len(runs))
	for i, r := range runs {
		tasks[i] = func() error {
			cfg := ScaleHosts(ScaleDuration(r.base, opts.DurationScale), opts.HostScale)
			cfg.Seed = sweepSeed(r.base.Seed, opts, r.point, r.rep)
			cfg.Workers, cfg.QueryWorkers = inner, inner
			r.mut(&cfg)
			w, err := sim.New(cfg)
			if err != nil {
				return fmt.Errorf("experiments: run %d (point %d, repeat %d): %w", i, r.point, r.rep, err)
			}
			if observe != nil {
				observe(i, w)
			}
			out[i] = w.Run()
			return nil
		}
	}
	if err := RunParallel(tasks, outer); err != nil {
		return nil, err
	}
	return out, nil
}
