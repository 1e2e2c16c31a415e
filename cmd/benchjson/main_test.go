package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
BenchmarkWorldStep/workers=1-8         	       3	 90000000 ns/op
BenchmarkWorldStep/workers=1-8         	       3	 80000000 ns/op
BenchmarkWorldStep/workers=8-8         	       3	 20000000 ns/op	     512 B/op	       7 allocs/op
BenchmarkFigureSuiteSequential-8       	       1	500000000 ns/op
PASS
ok  	repro	42.0s
`

func TestParseAggregatesAndStripsProcSuffix(t *testing.T) {
	doc, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %+v", len(doc.Benchmarks), doc.Benchmarks)
	}
	byName := map[string]Benchmark{}
	for _, b := range doc.Benchmarks {
		byName[b.Name] = b
	}
	w1, ok := byName["WorldStep/workers=1"]
	if !ok {
		t.Fatalf("proc suffix not stripped: %+v", byName)
	}
	if w1.Runs != 2 || w1.NsPerOp != 80000000 {
		t.Errorf("workers=1 = %+v, want 2 runs at min 8e7 ns/op", w1)
	}
	if w8 := byName["WorldStep/workers=8"]; w8.BPerOp != 512 || w8.AllocsOp != 7 {
		t.Errorf("extra metrics not parsed: %+v", w8)
	}
	// Sorted by name for byte-diffable output.
	for i := 1; i < len(doc.Benchmarks); i++ {
		if doc.Benchmarks[i-1].Name > doc.Benchmarks[i].Name {
			t.Errorf("benchmarks not sorted: %q before %q",
				doc.Benchmarks[i-1].Name, doc.Benchmarks[i].Name)
		}
	}
}

func TestGate(t *testing.T) {
	base := Document{Benchmarks: []Benchmark{
		{Name: "A", NsPerOp: 100},
		{Name: "B", NsPerOp: 100},
		{Name: "Gone", NsPerOp: 100},
	}}
	ok := Document{Benchmarks: []Benchmark{
		{Name: "A", NsPerOp: 115}, // +15% < +20%: fine
		{Name: "B", NsPerOp: 50},  // faster: fine
		{Name: "New", NsPerOp: 9e9},
	}}
	if err := Gate(io.Discard, ok, base); err != nil {
		t.Errorf("within-tolerance run failed the gate: %v", err)
	}
	bad := Document{Benchmarks: []Benchmark{{Name: "A", NsPerOp: 130}}}
	if err := Gate(io.Discard, bad, base); err == nil {
		t.Error("+30% regression passed a +20% gate")
	}
}

// TestRatioOnlyGating pins the CI gate semantics end to end: an absolute
// regression against the baseline is informational, while a missed
// -minspeedup ratio always fails.
func TestRatioOnlyGating(t *testing.T) {
	dir := t.TempDir()
	benchTxt := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(benchTxt, []byte(sample), 0o644); err != nil {
		t.Fatal(err)
	}
	// Baseline so fast that every parsed benchmark is a huge "regression".
	base := Document{Benchmarks: []Benchmark{
		{Name: "WorldStep/workers=1", NsPerOp: 1},
		{Name: "WorldStep/workers=8", NsPerOp: 1},
	}}
	baseJSON, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	basePath := filepath.Join(dir, "baseline.json")
	if err := os.WriteFile(basePath, baseJSON, 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out.json")

	// sample has workers=1 at 8e7 and workers=8 at 2e7 ns/op: a 4x ratio.
	okSpeedup := []string{"WorldStep/workers=1:WorldStep/workers=8:2.0"}
	if err := run(benchTxt, out, basePath, false, okSpeedup, nil); err != nil {
		t.Errorf("absolute regression failed a ratio-only run: %v", err)
	}
	badSpeedup := []string{"WorldStep/workers=1:WorldStep/workers=8:9.0"}
	if err := run(benchTxt, out, basePath, false, badSpeedup, nil); err == nil {
		t.Error("missed speedup ratio passed a ratio-only run")
	}

	// The alloc gate rides the same pipeline: workers=8 reports 7 allocs/op
	// in sample, so a ceiling of 7 passes and a ceiling of 0 fails.
	okAllocs := []string{"WorldStep/workers=8:7"}
	if err := run(benchTxt, out, basePath, false, nil, okAllocs); err != nil {
		t.Errorf("7 allocs/op failed a <=7 gate: %v", err)
	}
	badAllocs := []string{"WorldStep/workers=8:0"}
	if err := run(benchTxt, out, basePath, false, nil, badAllocs); err == nil {
		t.Error("7 allocs/op passed a <=0 gate")
	}
}

func TestAllocGateRecording(t *testing.T) {
	doc := Document{Benchmarks: []Benchmark{
		{Name: "Resolve/peersolved", NsPerOp: 100, AllocsOp: 0},
		{Name: "WorldStep/workers=8", NsPerOp: 40, AllocsOp: 7},
	}}
	if err := addAllocGate(&doc, "Resolve/peersolved:0"); err != nil {
		t.Fatalf("addAllocGate: %v", err)
	}
	if len(doc.AllocGates) != 1 {
		t.Fatalf("got %d alloc gates, want 1", len(doc.AllocGates))
	}
	if g := doc.AllocGates[0]; g.Name != "Resolve/peersolved" || g.AllocsOp != 0 || g.MaxAllocs != 0 {
		t.Errorf("recorded alloc gate = %+v, want 0 allocs over a 0 ceiling", g)
	}
	if err := gateAllocs(io.Discard, doc); err != nil {
		t.Errorf("0 allocs/op failed a <=0 requirement: %v", err)
	}

	// The measured count must land in the JSON artifact, not just on stderr.
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"alloc_gates"`) || !strings.Contains(string(data), `"max_allocs":0`) {
		t.Errorf("alloc gate missing from JSON document: %s", data)
	}

	if err := addAllocGate(&doc, "WorldStep/workers=8:3"); err != nil {
		t.Fatalf("addAllocGate: %v", err)
	}
	if err := gateAllocs(io.Discard, doc); err == nil {
		t.Error("7 allocs/op passed a <=3 requirement")
	}

	if err := addAllocGate(&doc, "nope"); err == nil {
		t.Error("malformed spec accepted")
	}
	if err := addAllocGate(&doc, "Missing:0"); err == nil {
		t.Error("spec naming an absent benchmark accepted")
	}
}

func TestSpeedupRecordingAndGate(t *testing.T) {
	doc := Document{Benchmarks: []Benchmark{
		{Name: "WorldStep/workers=1", NsPerOp: 100},
		{Name: "WorldStep/workers=8", NsPerOp: 40},
	}}
	if err := addSpeedup(&doc, "WorldStep/workers=1:WorldStep/workers=8:2.0"); err != nil {
		t.Fatalf("addSpeedup: %v", err)
	}
	if len(doc.Speedups) != 1 {
		t.Fatalf("got %d speedups, want 1", len(doc.Speedups))
	}
	s := doc.Speedups[0]
	if s.Slow != "WorldStep/workers=1" || s.Fast != "WorldStep/workers=8" ||
		s.Ratio != 2.5 || s.MinRatio != 2.0 {
		t.Errorf("recorded speedup = %+v, want 2.5x over a 2.0x floor", s)
	}
	if err := gateSpeedups(io.Discard, doc); err != nil {
		t.Errorf("2.5x speedup failed a 2.0x requirement: %v", err)
	}

	// The ratio must land in the JSON document (the CI artifact), not just
	// the gate's stderr.
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"speedups"`) || !strings.Contains(string(data), `"ratio":2.5`) {
		t.Errorf("speedup ratio missing from JSON document: %s", data)
	}

	if err := addSpeedup(&doc, "WorldStep/workers=1:WorldStep/workers=8:3.0"); err != nil {
		t.Fatalf("addSpeedup: %v", err)
	}
	if err := gateSpeedups(io.Discard, doc); err == nil {
		t.Error("2.5x speedup passed a 3.0x requirement")
	}

	if err := addSpeedup(&doc, "nope"); err == nil {
		t.Error("malformed spec accepted")
	}
	if err := addSpeedup(&doc, "WorldStep/workers=1:Missing:2.0"); err == nil {
		t.Error("spec naming an absent benchmark accepted")
	}
}
