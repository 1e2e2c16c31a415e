package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
)

// The tests run every workload at toy scale (about a second, 4 peers per
// neighbourhood, 2,000 hosts) against a daemon built once into a temporary
// directory.
var testEnv *benchEnv

func TestMain(m *testing.M) {
	os.Exit(func() int {
		root, err := findRoot("")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		dir, err := os.MkdirTemp("", "senn-bench-test-")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer os.RemoveAll(dir)
		bin, err := buildDaemon(context.Background(), root, dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		testEnv = &benchEnv{root: root, buildDir: dir, outDir: filepath.Join(dir, "out"), daemonBin: bin, toy: true}
		return m.Run()
	}())
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON keeps BENCHMARK.json and the harness's tables in step,
// and inside the limits the benchmark driver sets.
func TestBenchmarkJSON(t *testing.T) {
	path := filepath.Join(testEnv.root, "BENCHMARK.json")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(blob, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want exactly 6", len(keys))
	}
	if !bytes.Equal(blob, benchmarkSpec()) {
		t.Errorf("BENCHMARK.json differs from `go run -C bench . -spec`")
	}
	bf, err := readBenchmarkFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, harness default %d", bf.RunSeconds, defaultSeconds)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", bf.Paths)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, harness has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := bf.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, harness %q / %q", i, got.Name, got.Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (%d)", w.name, len(w.why))
		}
	}
	seen := make(map[string]bool)
	check := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics declared, harness has %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i] != d {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, harness %+v", kind, i, got[i], d)
			}
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
				t.Errorf("%s: bad name or unit in %+v", kind, d)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: %s: better = %q", kind, d.Name, d.Better)
			}
			if seen[d.Name] {
				t.Errorf("metric name %s used twice", d.Name)
			}
			seen[d.Name] = true
		}
	}
	check("end_to_end", bf.EndToEnd, endToEndMetrics)
	check("per_layer", bf.PerLayer, perLayerMetrics)
	hasSetup := false
	for _, d := range bf.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			hasSetup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, w := range bf.Workloads {
		if !nameRE.MatchString(w.Name) {
			t.Errorf("bad workload name %q", w.Name)
		}
	}
}

// TestToyWorkloads runs every workload, untraced and traced, and checks the
// line the driver reads: every declared metric, its declared unit, no
// failed operation.
func TestToyWorkloads(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.name
			if trace {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				res, err := w.run(context.Background(), testEnv, runOpts{seed: 3, seconds: 1, trace: trace})
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				res.print(&buf)
				t.Log("\n" + buf.String())
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				line, err := res.driverLine()
				if err != nil {
					t.Fatal(err)
				}
				var doc struct {
					Correct   *bool            `json:"correct"`
					Attempted *int64           `json:"attempted"`
					Failed    *int64           `json:"failed"`
					Metrics   map[string]value `json:"metrics"`
				}
				dec := json.NewDecoder(bytes.NewReader(line))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&doc); err != nil {
					t.Fatal(err)
				}
				if doc.Correct == nil || doc.Attempted == nil || doc.Failed == nil {
					t.Fatalf("driver line lacks a key: %s", line)
				}
				defs := endToEndMetrics
				if trace {
					defs = perLayerMetrics
				}
				if len(doc.Metrics) != len(defs) {
					t.Errorf("%d metrics in the driver line, %d declared", len(doc.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := doc.Metrics[d.Name]
					if !ok {
						t.Errorf("metric %s not printed", d.Name)
						continue
					}
					if v.Unit != d.Unit {
						t.Errorf("metric %s printed in %q, declared %q", d.Name, v.Unit, d.Unit)
					}
					if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("metric %s = %v", d.Name, v.Value)
					}
					if !trace && v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, v.Value)
					}
				}
				for n := range res.Metrics {
					if !nameRE.MatchString(n) {
						t.Errorf("metric name %q", n)
					}
				}
				if trace {
					if _, err := os.Stat(filepath.Join(testEnv.outDir, fmt.Sprintf("%s-seed3.spans.csv", w.name))); err != nil {
						t.Errorf("traced run wrote no spans: %v", err)
					}
				}
			})
		}
	}
}

// TestIsolation pins what the served workloads promise about the relay.
func TestIsolation(t *testing.T) {
	direct, err := runServe(context.Background(), testEnv, serveDirect, runOpts{seed: 5, seconds: 1, trace: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"serve.relay.probes_per_request", "serve.relay.exchange_p50_us", "peer_bytes_per_query", "wire.relay_bytes_per_query"} {
		if v := direct.get(m); v != 0 {
			t.Errorf("serve-direct: %s = %v, want 0", m, v)
		}
	}
	relay, err := runServe(context.Background(), testEnv, serveRelay, runOpts{seed: 5, seconds: 1, trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if v := relay.get("serve.relay.probes_per_request"); v != float64(testEnv.scaleServe(serveRelay).hoodPeers) {
		t.Errorf("serve-relay: %v probes per request, want exactly the neighbourhood's peers", v)
	}
	if v := relay.get("serve.relay.timeouts"); v != 0 {
		t.Errorf("serve-relay: %v relay timeouts", v)
	}
	// At toy POI density a peer's cached region can reach an excursion
	// point, so the script's share is an upper limit here, not an equality.
	if v := relay.get("server_share"); v <= 0 || v > 100/float64(serveRelay.excursionEvery) {
		t.Errorf("serve-relay: server share %v%%, want at most the script's excursion share", v)
	}
}

// TestSimCountsRepeat: the same seed gives the same counts, another seed
// different ones.
func TestSimCountsRepeat(t *testing.T) {
	run := func(seed int64) *result {
		res, err := runSim(context.Background(), testEnv, simQuery, runOpts{seed: seed, seconds: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b, c := run(7), run(7), run(8)
	for _, m := range []string{"server_share", "pages_per_server_query", "peer_bytes_per_query"} {
		if a.get(m) != b.get(m) {
			t.Errorf("%s: %v then %v for the same seed", m, a.get(m), b.get(m))
		}
	}
	if a.get("peer_bytes_per_query") == c.get("peer_bytes_per_query") {
		t.Error("seeds 7 and 8 gave the same peer bytes per query: the seed does not reach the inputs")
	}
}

// TestOracleTrips: a deliberately corrupted answer is caught, both by the
// oracle itself and through a served run's answer check.
func TestOracleTrips(t *testing.T) {
	var pois []core.POI
	for i := 0; i < 100; i++ {
		pois = append(pois, core.POI{ID: int64(i), Loc: geom.Pt(float64(i%10)*10+0.1*float64(i), float64(i/10)*10)})
	}
	or := newOracle(pois)
	q := geom.Pt(42, 37)
	var ids []int64
	for _, h := range or.knn(q, 5) {
		ids = append(ids, h.poi.ID)
	}
	if !or.checkKNN(q, 5, ids) {
		t.Fatal("the oracle rejects its own answer")
	}
	swapped := append([]int64(nil), ids...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if or.checkKNN(q, 5, swapped) {
		t.Error("a wrong order passes")
	}
	replaced := append([]int64(nil), ids...)
	replaced[4] = 99
	if or.checkKNN(q, 5, replaced) {
		t.Error("a wrong neighbour passes")
	}
	if or.checkKNN(q, 5, ids[:4]) {
		t.Error("a short answer passes")
	}
	var within []core.POI
	for _, h := range or.within(q, 15) {
		within = append(within, h.poi)
	}
	if len(within) < 2 || !or.checkRange(q, 15, within) {
		t.Fatalf("the oracle rejects its own range answer (%d hits)", len(within))
	}
	if or.checkRange(q, 15, within[1:]) {
		t.Error("a range answer missing a POI passes")
	}

	spec := testEnv.scaleServe(serveDirect)
	fx, err := setupFixture(context.Background(), testEnv, spec, 9)
	if err != nil {
		t.Fatal(err)
	}
	defer fx.teardown()
	fx.runPhase(200*time.Millisecond, nil)
	clean := newResult(spec.name, runOpts{}, 1)
	if err := fx.checkAnswers(clean); err != nil {
		t.Fatal(err)
	}
	if !clean.Correct || clean.Failed != 0 {
		t.Fatalf("clean run fails the oracle: %v", clean.Notes)
	}
	dr := fx.drivers[0]
	if len(dr.knnSamples) == 0 || len(dr.rangeSamples) == 0 {
		t.Fatal("the run sampled no answers")
	}
	dr.knnSamples[0].ids[0]++
	dr.rangeSamples[0].count++
	dirty := newResult(spec.name, runOpts{}, 1)
	if err := fx.checkAnswers(dirty); err != nil {
		t.Fatal(err)
	}
	if dirty.Correct || dirty.Failed != 2 {
		t.Errorf("two corrupted answers: correct=%v failed=%d", dirty.Correct, dirty.Failed)
	}
}

// TestCompare: ok, worse and unresolved, in both directions.
func TestCompare(t *testing.T) {
	lower := metricDef{Name: "x", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "y", Unit: "1/s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	noisy := []float64{100, 130, 70, 125, 80}
	cases := []struct {
		def          metricDef
		base, change []float64
		want         string
	}{
		{lower, steady, []float64{105, 104, 106}, "ok"},
		{lower, steady, []float64{115, 114, 116}, "worse"},
		{lower, steady, []float64{50, 51, 49}, "ok"},
		{higher, steady, []float64{95, 96, 94}, "ok"},
		{higher, steady, []float64{85, 86, 84}, "worse"},
		{higher, steady, []float64{150, 151}, "ok"},
		{lower, noisy, []float64{100}, "unresolved"},
		{metricDef{Name: "z", Better: "lower"}, steady, []float64{500}, "info"},
	}
	for i, c := range cases {
		if got, _, _ := verdict(c.def, c.base, c.change); got != c.want {
			t.Errorf("case %d: verdict %q, want %q", i, got, c.want)
		}
	}

	dir := t.TempDir()
	write := func(name string, pages float64) string {
		path := filepath.Join(dir, name)
		for i := 0; i < 3; i++ {
			r := newResult("serve-direct", runOpts{seed: int64(i)}, 2)
			r.set("pages_per_server_query", pages+float64(i)/100)
			r.set("query_p50_ms", 0.1)
			if err := appendResult(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base, same, slow := write("a.json", 7.0), write("b.json", 7.1), write("c.json", 9.5)
	bench := filepath.Join(testEnv.root, "BENCHMARK.json")
	var out bytes.Buffer
	if err := compareSets(&out, bench, base, same); err != nil {
		t.Errorf("equal sets compare as worse: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "pages_per_server_query") || !strings.Contains(out.String(), "info") {
		t.Errorf("comparison lacks the gated or the informational row:\n%s", out.String())
	}
	if err := compareSets(&out, bench, base, slow); err == nil {
		t.Error("35% more pages per server query compares as ok")
	}
}

// TestQuartiles: the spread is computed the way Python's
// statistics.quantiles(values, n=4) computes it.
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if s := spreadShare([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); s != 1 {
		t.Errorf("spread share %v, want 1", s)
	}
}
