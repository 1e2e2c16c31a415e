// Command bench is the repository's benchmark: four workloads (two against
// the shipped senn-serverd binary, two on the simulator), the end-to-end
// metrics BENCHMARK.json declares, and — in a traced run — the per-layer
// metrics and an outside-in latency budget. README.md in this directory is
// the glossary.
//
//	go run -C bench . -workload serve-relay            # one workload, untraced
//	go run -C bench . -workload serve-relay -trace 1   # per-layer metrics + budget
//	go run -C bench . -seed 2 -out b.json              # all four, second seed, result set
//	go run -C bench . -compare a.json b.json           # judge b against a
//
// It prints every metric by name with its unit, ends with one JSON line per
// workload in the form the benchmark driver reads, and exits non-zero on a
// wrong answer. BENCHMARK.json runs it through run.sh, which keeps the Go
// build cache inside the checkout.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

// runOpts are the harness arguments of one run; the program under test sees
// only inputs generated from the seed.
type runOpts struct {
	seed    int64
	seconds float64
	trace   bool
}

// benchEnv is where the harness builds and writes: everything stays under
// the checkout.
type benchEnv struct {
	root      string // repository root
	buildDir  string // build outputs and per-run scratch
	outDir    string // traces
	daemonBin string
	toy       bool // bench_test.go's scale
}

// workload is one entry of BENCHMARK.json's workload list.
type workload struct {
	name string
	why  string
	run  func(context.Context, *benchEnv, runOpts) (*result, error)
}

var workloads = []workload{
	{"serve-direct", "sharing off, fresh uniform position per op: every kNN reaches the R*-tree and every Move migrates a directory cell; relay and multi-peer verification idle (the bypass workload for relay changes)",
		func(ctx context.Context, e *benchEnv, o runOpts) (*result, error) {
			return runServe(ctx, e, serveDirect, o)
		}},
	{"serve-relay", "sharing on, 32 passive peers in range of every request; 9 queries in 10 are certified from peer caches and 1 in 10 falls through by script: directory scan, probe fan-out and verification dominate",
		func(ctx context.Context, e *benchEnv, o runOpts) (*result, error) {
			return runServe(ctx, e, serveRelay, o)
		}},
	{"sim-query", "Table 4 Los Angeles, free movement, 20x query rate: batched gather, client.Resolver and core verification are the run, movement is minor (query-worker scaling, gather consolidation)",
		func(ctx context.Context, e *benchEnv, o runOpts) (*result, error) { return runSim(ctx, e, simQuery, o) }},
	{"sim-move", "one million hosts, 10% duty cycle: movement plus incremental grid maintenance is most of the wall time and most queries fall through to EINN (the grid's write path)",
		func(ctx context.Context, e *benchEnv, o runOpts) (*result, error) { return runSim(ctx, e, simMove, o) }},
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", defaultSeconds, "measuring time of one run")
		trace   = flag.Int("trace", 0, "1 = traced run: per-layer metrics, spans, layer budget")
		out     = flag.String("out", "", "append each result to this JSON result set")
		root    = flag.String("root", "", "repository root (default: found from the working directory)")
		compare = flag.Bool("compare", false, "compare two result sets: -compare base.json change.json")
		spec    = flag.Bool("spec", false, "print BENCHMARK.json as the harness's tables define it, and exit")
	)
	flag.Parse()
	if *spec {
		os.Stdout.Write(benchmarkSpec())
		return
	}
	if err := realMain(*name, *root, *out, *compare, runOpts{seed: *seed, seconds: *seconds, trace: *trace != 0}); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func realMain(name, root, out string, compare bool, o runOpts) error {
	root, err := findRoot(root)
	if err != nil {
		return err
	}
	if compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two result sets: base.json change.json")
		}
		return compareSets(os.Stdout, filepath.Join(root, "BENCHMARK.json"), flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	var todo []workload
	for _, w := range workloads {
		if name == "all" || name == w.name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		return fmt.Errorf("unknown workload %q", name)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	env, err := newEnv(ctx, root)
	if err != nil {
		return err
	}
	wrong := false
	for _, w := range todo {
		res, err := w.run(ctx, env, o)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		res.print(os.Stdout)
		if out != "" {
			if err := appendResult(out, res); err != nil {
				return err
			}
		}
		line, err := res.driverLine()
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", line)
		wrong = wrong || !res.Correct
	}
	if wrong {
		return fmt.Errorf("a workload gave a wrong answer or failed an operation")
	}
	return nil
}

// newEnv locates the build directory and builds the daemon from the
// checkout's source.
func newEnv(ctx context.Context, root string) (*benchEnv, error) {
	env := &benchEnv{
		root:     root,
		buildDir: filepath.Join(root, ".bench_build"),
		outDir:   filepath.Join(root, "bench", "out"),
	}
	if err := os.MkdirAll(env.buildDir, 0o755); err != nil {
		return nil, err
	}
	bctx, cancel := context.WithTimeout(ctx, 10*time.Minute)
	defer cancel()
	bin, err := buildDaemon(bctx, root, env.buildDir)
	if err != nil {
		return nil, err
	}
	env.daemonBin = bin
	return env, nil
}

// findRoot returns the repository root: the given directory, else the
// working directory or its parent (go run -C bench runs in bench/),
// whichever holds cmd/senn-serverd.
func findRoot(given string) (string, error) {
	candidates := []string{given}
	if given == "" {
		wd, err := os.Getwd()
		if err != nil {
			return "", err
		}
		candidates = []string{wd, filepath.Dir(wd)}
	}
	for _, c := range candidates {
		if _, err := os.Stat(filepath.Join(c, "cmd", "senn-serverd", "main.go")); err == nil {
			return filepath.Abs(c)
		}
	}
	return "", fmt.Errorf("cannot find the repository (cmd/senn-serverd) from %v", candidates)
}

// scaleServe and scaleSim shrink a workload to bench_test.go's toy scale;
// the benchmark itself always runs the full specification.
func (e *benchEnv) scaleServe(s serveSpec) serveSpec {
	if !e.toy {
		return s
	}
	s.store.pois = 5000
	if s.hoodPeers > 0 {
		s.hoodPeers = 4
		s.hoodsPerDriver = 2
		s.hoodDwell = 50
	}
	s.warmup = 100 * time.Millisecond
	s.countPrefix = 100
	s.setupReps = 2
	return s
}

func (e *benchEnv) scaleSim(s simSpec) simSpec {
	if !e.toy {
		return s
	}
	shrink := float64(s.cfg.NumHosts) / 2000
	s.cfg.NumHosts = 2000
	s.cfg.NumPOIs = 200
	s.cfg.QueriesPerMinute /= shrink
	s.cfg.AreaWidth /= 8
	s.cfg.AreaHeight /= 8
	s.cfg.Duration = 60
	s.minReps = 2
	return s
}
