package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// metricDef is one named measurement. The end-to-end list below is what
// BENCHMARK.json declares with bounds (the driver gates on those); the
// per-layer list is what a traced run reports. bench_test.go keeps
// BENCHMARK.json and these tables in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndMetrics are defined — and never zero — on all four workloads,
// because the driver expects every run to print every one of them, and they
// are steady from run to run, because the driver accepts a benchmark only if
// each one's spread over ten seeds stays within its bound. On the shared
// reference host that rules out every absolute timing but setup_s (which the
// spread rule exempts): throughput, latency and CPU per query move by 15-35%
// between identical runs minutes apart, so by ISSUE 11's own rule they are
// demoted to the per-layer list rather than given a bound no one could trust
// (README.md has the measurements). The bounds below are at least three
// times the interquartile spread measured over ten seeds.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"server_share", "%", "lower", 0.08},
	{"pages_per_server_query", "pages", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayerMetrics are reported by traced runs. A layer a workload does not
// execute reports 0. The first block holds what ISSUE 11 proposed as
// end-to-end metrics but which cannot carry a bound here: the timings (too
// noisy on this host) and the ones that exist on only some workloads (a
// latency on the simulator, P2P bytes with sharing off). They are measured
// in every run, printed, and shown by `-compare` with the base's spread.
var perLayerMetrics = []metricDef{
	{Name: "qps", Unit: "queries/s", Better: "higher"},
	{Name: "query_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "query_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "query_p999_ms", Unit: "ms", Better: "lower"},
	{Name: "range_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "peer_bytes_per_query", Unit: "bytes", Better: "lower"},
	{Name: "sim_rate", Unit: "simsec/s", Better: "higher"},
	{Name: "error_rate", Unit: "fraction", Better: "lower"},

	{Name: "wire.query_answer_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.shares_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.shares_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.share_reply_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.relay_bytes_per_query", Unit: "bytes", Better: "lower"},

	{Name: "serve.ws.rtt_floor_us", Unit: "us", Better: "lower"},
	{Name: "serve.ws.frames_per_query", Unit: "count", Better: "lower"},

	{Name: "serve.relay.exchange_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.relay.exchange_p99_us", Unit: "us", Better: "lower"},
	{Name: "serve.relay.zero_peer_exchange_us", Unit: "us", Better: "lower"},
	{Name: "serve.relay.probes_per_request", Unit: "count", Better: "lower"},
	{Name: "serve.relay.solved_per_exchange", Unit: "ratio", Better: "higher"},
	{Name: "serve.relay.timeouts", Unit: "count", Better: "lower"},
	{Name: "serve.relay.unknown_replies", Unit: "count", Better: "lower"},
	{Name: "serve.relay.rejected", Unit: "count", Better: "lower"},
	{Name: "serve.dir.cells_scanned_per_request", Unit: "count", Better: "lower"},
	{Name: "serve.dir.rejected_per_request", Unit: "count", Better: "lower"},
	{Name: "serve.dir.patch_ops_per_position", Unit: "ratio", Better: "lower"},

	{Name: "client.resolve_ns", Unit: "ns", Better: "lower"},
	{Name: "core.verify_ns", Unit: "ns", Better: "lower"},
	{Name: "core.single_share", Unit: "%", Better: "higher"},
	{Name: "core.multi_share", Unit: "%", Better: "higher"},
	{Name: "cache.own_hit_share", Unit: "%", Better: "higher"},

	{Name: "nn.knn_ns", Unit: "ns", Better: "lower"},
	{Name: "nn.range_ns", Unit: "ns", Better: "lower"},
	{Name: "nn.bounded_share", Unit: "%", Better: "higher"},
	{Name: "rtree.range_hits", Unit: "count", Better: "lower"},
	{Name: "rtree.build_s", Unit: "s", Better: "lower"},
	{Name: "serve.store.read_s", Unit: "s", Better: "lower"},

	{Name: "sim.move_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "sim.query_us", Unit: "us", Better: "lower"},
	{Name: "sim.gather_reuse_ratio", Unit: "ratio", Better: "higher"},
	{Name: "sim.peer_msgs_per_query", Unit: "count", Better: "lower"},
	{Name: "sim.worker_speedup", Unit: "ratio", Better: "higher"},
	{Name: "sim.grid_within_ns", Unit: "ns", Better: "lower"},
	{Name: "mobility.advance_ns", Unit: "ns", Better: "lower"},

	{Name: "proc.cpu_ms_per_kq", Unit: "ms", Better: "lower"},
	{Name: "proc.loadgen_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "budget.unattributed_us", Unit: "us", Better: "lower"},
}

// unitOf maps every known metric name to its declared unit.
var unitOf = func() map[string]string {
	m := make(map[string]string)
	for _, d := range endToEndMetrics {
		m[d.Name] = d.Unit
	}
	for _, d := range perLayerMetrics {
		m[d.Name] = d.Unit
	}
	return m
}()

// value is one reported measurement.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload.
type result struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Trace     bool             `json:"trace"`
	Drivers   int              `json:"drivers"`
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	// Samples holds the sample count behind a percentile or median, keyed
	// by metric name, so a reader can judge how far into the tail it reaches.
	Samples map[string]int `json:"samples,omitempty"`
	// Notes are free-form lines printed with the result (the layer budget,
	// count-prefix shortfalls).
	Notes []string `json:"notes,omitempty"`
}

func newResult(workload string, o runOpts, drivers int) *result {
	return &result{
		Workload: workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Drivers: drivers, Correct: true,
		Metrics: make(map[string]value), Samples: make(map[string]int),
	}
}

// set records a metric under its declared unit; an undeclared name is a
// harness bug.
func (r *result) set(name string, v float64) {
	unit, ok := unitOf[name]
	if !ok {
		panic("bench: metric " + name + " is not declared in metrics.go")
	}
	r.Metrics[name] = value{Value: v, Unit: unit}
}

func (r *result) setN(name string, v float64, samples int) {
	r.set(name, v)
	r.Samples[name] = samples
}

func (r *result) get(name string) float64 { return r.Metrics[name].Value }

func (r *result) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// driverLine is the last line of standard output: exactly the keys the
// benchmark contract names, with every end-to-end metric (untraced) or every
// per-layer metric (traced).
func (r *result) driverLine() ([]byte, error) {
	defs := endToEndMetrics
	if r.Trace {
		defs = perLayerMetrics
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		if !ok {
			if !r.Trace {
				return nil, fmt.Errorf("workload %s did not measure end-to-end metric %s", r.Workload, d.Name)
			}
			v = value{Unit: d.Unit} // layer not executed by this workload
		}
		metrics[d.Name] = v
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
}

// print writes every measured metric by name with its unit, then the notes.
func (r *result) print(w io.Writer) {
	mode := "untraced"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s  seed=%d  seconds=%g  %s  drivers=%d  attempted=%d failed=%d correct=%v\n",
		r.Workload, r.Seed, r.Seconds, mode, r.Drivers, r.Attempted, r.Failed, r.Correct)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := r.Metrics[n]
		line := fmt.Sprintf("%-40s %14.6g %s", n, v.Value, v.Unit)
		if s, ok := r.Samples[n]; ok {
			line += fmt.Sprintf("  (n=%d)", s)
		}
		fmt.Fprintln(w, line)
	}
	for _, n := range r.Notes {
		fmt.Fprintln(w, strings.TrimRight(n, "\n"))
	}
}

// appendResult adds r to the JSON result set at path (a list of results),
// creating it when absent. `-compare` reads two such sets.
func appendResult(path string, r *result) error {
	set, err := readResults(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	set = append(set, *r)
	blob, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

func readResults(path string) ([]result, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set []result
	if err := json.Unmarshal(blob, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}
