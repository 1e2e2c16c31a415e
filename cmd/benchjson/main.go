// Command benchjson converts `go test -bench` text output into a stable JSON
// document and optionally gates it against a committed baseline.
//
// The CI bench job pipes the benchmark run through a file and then:
//
//	benchjson -in bench.txt -out BENCH_ci.json \
//	          -baseline results/BENCH_baseline.json \
//	          -minspeedup 'WorldStep/grid=1M/rebuild:WorldStep/grid=1M/delta:2.0'
//
// With -count N the same benchmark appears N times; benchjson keeps the
// fastest run (minimum ns/op), the standard noise-rejection choice for
// regression gating. The trailing -GOMAXPROCS suffix is stripped from names
// so documents from machines with different core counts stay comparable.
//
// Gate semantics: only the -minspeedup ratios fail a run. Each ratio is
// measured between two benchmarks of the *same* run, so it is
// machine-speed independent — the number to trust on heterogeneous CI
// runners, where absolute ns/op would need a per-runner baseline. Every
// ratio is also recorded in the output document's "speedups" section (e.g.
// the WorldStep grid=1M rebuild/delta ratio in BENCH_ci.json).
//
// The -baseline comparison is informational: benchmarks more than 20 %
// slower than the baseline are reported on stderr but never fail the run;
// -update rewrites the baseline from the current run instead. Benchmarks
// missing from the baseline (or present only there) are noted too, so
// adding or removing benchmarks does not require a lockstep baseline
// update.
//
// Flags: -in, -out, -baseline, -update, and the repeatable gates
// -minspeedup and -maxallocs.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one aggregated benchmark result.
type Benchmark struct {
	Name     string  `json:"name"`
	Runs     int     `json:"runs"`
	NsPerOp  float64 `json:"ns_per_op"` // minimum across runs
	BPerOp   float64 `json:"b_per_op,omitempty"`
	AllocsOp float64 `json:"allocs_per_op,omitempty"`
}

// Speedup is one measured parallel-speedup ratio, recorded in the JSON
// document so the CI artifact carries the workers=8/workers=1 ratio
// explicitly. Unlike absolute ns/op, the ratio is comparable across
// runners of different speeds, which is what makes it the sturdier gate.
type Speedup struct {
	Slow     string  `json:"slow"`
	Fast     string  `json:"fast"`
	Ratio    float64 `json:"ratio"`     // slow ns/op ÷ fast ns/op
	MinRatio float64 `json:"min_ratio"` // required by the -minspeedup gate
}

// AllocGate is one enforced allocs/op ceiling, recorded in the JSON document
// so the artifact shows the measured count next to the limit. Like the
// speedup ratios it is machine-independent: an allocation count depends only
// on the code, never on runner speed.
type AllocGate struct {
	Name      string  `json:"name"`
	AllocsOp  float64 `json:"allocs_per_op"`
	MaxAllocs float64 `json:"max_allocs"`
}

// Document is the BENCH_ci.json layout. Benchmarks are sorted by name so
// regenerated files are byte-diffable.
type Document struct {
	Benchmarks []Benchmark `json:"benchmarks"`
	Speedups   []Speedup   `json:"speedups,omitempty"`
	AllocGates []AllocGate `json:"alloc_gates,omitempty"`
}

func main() {
	var (
		in        = flag.String("in", "", "benchmark text to parse (default stdin)")
		out       = flag.String("out", "", "JSON output path (default stdout)")
		baseline  = flag.String("baseline", "", "baseline JSON to compare against (informational)")
		update    = flag.Bool("update", false, "rewrite the baseline from this run instead of comparing")
		speedups  multiFlag
		maxallocs multiFlag
	)
	flag.Var(&speedups, "minspeedup",
		"require benchmark B to be at least R× faster than A, as 'A:B:R' (repeatable)")
	flag.Var(&maxallocs, "maxallocs",
		"require benchmark NAME to allocate at most N objects per op, as 'NAME:N' (repeatable; needs -benchmem output)")
	flag.Parse()

	if err := run(*in, *out, *baseline, *update, speedups, maxallocs); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(in, out, baseline string, update bool, speedups, maxallocs []string) error {
	var src io.Reader = os.Stdin
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}
	doc, err := Parse(src)
	if err != nil {
		return err
	}
	if len(doc.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines found in input")
	}
	// Resolve the speedup ratios into the document before writing it, so
	// the uploaded artifact records the measured ratio even when the gate
	// below fails the job.
	for _, spec := range speedups {
		if err := addSpeedup(&doc, spec); err != nil {
			return err
		}
	}
	for _, spec := range maxallocs {
		if err := addAllocGate(&doc, spec); err != nil {
			return err
		}
	}

	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "" {
		os.Stdout.Write(data)
	} else if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}

	if err := gateSpeedups(os.Stderr, doc); err != nil {
		return err
	}
	if err := gateAllocs(os.Stderr, doc); err != nil {
		return err
	}

	if baseline == "" {
		return nil
	}
	if update {
		return os.WriteFile(baseline, data, 0o644)
	}
	base, err := readDocument(baseline)
	if err != nil {
		return fmt.Errorf("read baseline: %w", err)
	}
	if err := Gate(os.Stderr, doc, base); err != nil {
		// Ratio-only gating: absolute ns/op differences against a baseline
		// recorded on a different machine are noise, so report and move on.
		fmt.Fprintf(os.Stderr, "benchjson: baseline comparison informational only: %v\n", err)
	}
	return nil
}

// readDocument loads a previously written benchmark JSON document.
func readDocument(path string) (Document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Document{}, err
	}
	var doc Document
	if err := json.Unmarshal(data, &doc); err != nil {
		return Document{}, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// benchLine matches one `go test -bench` result line, e.g.
//
//	BenchmarkWorldStep/queries/qworkers=4-8   3   123456 ns/op   64 B/op   2 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+([0-9.]+) ns/op(.*)$`)

// procSuffix is the trailing -GOMAXPROCS tag Go appends to benchmark names.
var procSuffix = regexp.MustCompile(`-\d+$`)

// Parse reads benchmark text and aggregates repeated runs of the same
// benchmark, keeping the minimum ns/op.
func Parse(r io.Reader) (Document, error) {
	best := map[string]*Benchmark{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		name := procSuffix.ReplaceAllString(strings.TrimPrefix(m[1], "Benchmark"), "")
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		b := best[name]
		if b == nil {
			b = &Benchmark{Name: name, NsPerOp: ns}
			best[name] = b
		}
		b.Runs++
		if ns < b.NsPerOp {
			b.NsPerOp = ns
		}
		for _, metric := range []struct {
			unit string
			dst  *float64
		}{{"B/op", &b.BPerOp}, {"allocs/op", &b.AllocsOp}} {
			if v, ok := extraMetric(m[4], metric.unit); ok &&
				(*metric.dst == 0 || v < *metric.dst) {
				*metric.dst = v
			}
		}
	}
	if err := sc.Err(); err != nil {
		return Document{}, err
	}
	doc := Document{Benchmarks: make([]Benchmark, 0, len(best))}
	for _, b := range best {
		doc.Benchmarks = append(doc.Benchmarks, *b)
	}
	sort.Slice(doc.Benchmarks, func(i, j int) bool {
		return doc.Benchmarks[i].Name < doc.Benchmarks[j].Name
	})
	return doc, nil
}

// extraMetric pulls "<value> <unit>" out of the tail of a benchmark line.
func extraMetric(tail, unit string) (float64, bool) {
	fields := strings.Fields(tail)
	for i := 1; i < len(fields); i++ {
		if fields[i] == unit {
			v, err := strconv.ParseFloat(fields[i-1], 64)
			return v, err == nil
		}
	}
	return 0, false
}

// tolerance is the slowdown against the baseline worth reporting (+20 %).
const tolerance = 0.20

// Gate compares doc against base and returns an error when any shared
// benchmark regressed beyond the tolerance. Diagnostics go to w. run treats
// the error as informational because absolute ns/op from heterogeneous
// runners is not comparable; only the speedup ratios gate.
func Gate(w io.Writer, doc, base Document) error {
	baseBy := map[string]Benchmark{}
	for _, b := range base.Benchmarks {
		baseBy[b.Name] = b
	}
	var failures []string
	for _, b := range doc.Benchmarks {
		bb, ok := baseBy[b.Name]
		if !ok {
			fmt.Fprintf(w, "benchjson: %s: not in baseline (new benchmark, not gated)\n", b.Name)
			continue
		}
		delete(baseBy, b.Name)
		ratio := b.NsPerOp / bb.NsPerOp
		limit := 1 + tolerance
		status := "ok"
		if ratio > limit {
			status = "FAIL"
			failures = append(failures, fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f (%.2fx > %.2fx allowed)",
				b.Name, b.NsPerOp, bb.NsPerOp, ratio, limit))
		}
		fmt.Fprintf(w, "benchjson: %-40s %12.0f ns/op  baseline %12.0f  ratio %.2f  %s\n",
			b.Name, b.NsPerOp, bb.NsPerOp, ratio, status)
	}
	for name := range baseBy {
		fmt.Fprintf(w, "benchjson: %s: in baseline but not in this run (not gated)\n", name)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed beyond +%.0f%%:\n  %s",
			len(failures), tolerance*100, strings.Join(failures, "\n  "))
	}
	return nil
}

// addSpeedup resolves one 'slow:fast:ratio' spec against the parsed
// benchmarks and records the measured ratio in doc.Speedups.
func addSpeedup(doc *Document, spec string) error {
	parts := strings.Split(spec, ":")
	if len(parts) != 3 {
		return fmt.Errorf("bad -minspeedup %q: want 'slowName:fastName:minRatio'", spec)
	}
	want, err := strconv.ParseFloat(parts[2], 64)
	if err != nil {
		return fmt.Errorf("bad -minspeedup ratio %q: %v", parts[2], err)
	}
	find := func(name string) (Benchmark, error) {
		for _, b := range doc.Benchmarks {
			if b.Name == name {
				return b, nil
			}
		}
		return Benchmark{}, fmt.Errorf("-minspeedup: benchmark %q not in this run", name)
	}
	slow, err := find(parts[0])
	if err != nil {
		return err
	}
	fast, err := find(parts[1])
	if err != nil {
		return err
	}
	doc.Speedups = append(doc.Speedups, Speedup{
		Slow:     slow.Name,
		Fast:     fast.Name,
		Ratio:    math.Round(slow.NsPerOp/fast.NsPerOp*10000) / 10000,
		MinRatio: want,
	})
	return nil
}

// addAllocGate resolves one 'name:maxAllocs' spec against the parsed
// benchmarks and records the measured allocs/op in doc.AllocGates.
func addAllocGate(doc *Document, spec string) error {
	i := strings.LastIndex(spec, ":")
	if i < 0 {
		return fmt.Errorf("bad -maxallocs %q: want 'benchName:maxAllocsPerOp'", spec)
	}
	name, limit := spec[:i], spec[i+1:]
	max, err := strconv.ParseFloat(limit, 64)
	if err != nil {
		return fmt.Errorf("bad -maxallocs limit %q: %v", limit, err)
	}
	for _, b := range doc.Benchmarks {
		if b.Name == name {
			doc.AllocGates = append(doc.AllocGates, AllocGate{
				Name: name, AllocsOp: b.AllocsOp, MaxAllocs: max,
			})
			return nil
		}
	}
	return fmt.Errorf("-maxallocs: benchmark %q not in this run", name)
}

// gateSpeedups enforces every recorded speedup requirement, printing each
// measured ratio to w.
func gateSpeedups(w io.Writer, doc Document) error {
	for _, s := range doc.Speedups {
		fmt.Fprintf(w, "benchjson: speedup %s -> %s = %.2fx (want >= %.2fx)\n",
			s.Slow, s.Fast, s.Ratio, s.MinRatio)
		if s.Ratio < s.MinRatio {
			return fmt.Errorf("speedup %s -> %s is %.2fx, want >= %.2fx",
				s.Slow, s.Fast, s.Ratio, s.MinRatio)
		}
	}
	return nil
}

// gateAllocs enforces every recorded allocs/op ceiling, printing each
// measured count to w.
func gateAllocs(w io.Writer, doc Document) error {
	for _, g := range doc.AllocGates {
		fmt.Fprintf(w, "benchjson: allocs %s = %g allocs/op (want <= %g)\n",
			g.Name, g.AllocsOp, g.MaxAllocs)
		if g.AllocsOp > g.MaxAllocs {
			return fmt.Errorf("allocs %s is %g allocs/op, want <= %g",
				g.Name, g.AllocsOp, g.MaxAllocs)
		}
	}
	return nil
}

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(s string) error { *m = append(*m, s); return nil }
