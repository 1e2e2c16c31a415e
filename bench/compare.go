package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// benchmarkSpec renders BENCHMARK.json from the harness's own tables, so the
// file and the program cannot drift (bench_test.go compares them).
func benchmarkSpec() []byte {
	b := benchmarkFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
		EndToEnd:   endToEndMetrics,
		PerLayer:   perLayerMetrics,
	}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{w.name, w.why})
	}
	blob, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		panic(err) // plain strings and numbers
	}
	return append(blob, '\n')
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(blob, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// verdict judges one (metric, workload) pair the way the benchmark's
// regression rule does: the change's median may be worse than the base's by
// at most bound (a share of the base median); where the base's own
// run-to-run spread is wider than the bound the pair is unresolved, not ok.
func verdict(def metricDef, base, change []float64) (string, float64, float64) {
	b, c := median(base), median(change)
	spread := spreadShare(base)
	worse := 0.0 // share of the base median by which the change is worse
	if b != 0 {
		worse = (c - b) / b
		if def.Better == "higher" {
			worse = -worse
		}
		if b < 0 {
			worse = -worse
		}
	}
	switch {
	case def.Bound == 0:
		return "info", worse, spread
	case spread > def.Bound:
		return "unresolved", worse, spread
	case worse > def.Bound:
		return "worse", worse, spread
	default:
		return "ok", worse, spread
	}
}

// compareSets applies BENCHMARK.json's bounds to two result sets and prints
// one row per (metric, workload), every ratio beside its base. Metrics
// without a bound (per-layer ones) are shown for information.
func compareSets(w io.Writer, benchmarkPath, basePath, changePath string) error {
	bf, err := readBenchmarkFile(benchmarkPath)
	if err != nil {
		return err
	}
	base, err := readResults(basePath)
	if err != nil {
		return err
	}
	change, err := readResults(changePath)
	if err != nil {
		return err
	}
	defs := make(map[string]metricDef)
	for _, d := range bf.PerLayer {
		d.Bound = 0
		defs[d.Name] = d
	}
	for _, d := range bf.EndToEnd {
		defs[d.Name] = d
	}

	type key struct{ workload, metric string }
	collect := func(set []result) (map[key][]float64, map[string]int64) {
		vals := make(map[key][]float64)
		failed := make(map[string]int64)
		for _, r := range set {
			failed[r.Workload] += r.Failed
			for name, v := range r.Metrics {
				k := key{r.Workload, name}
				vals[k] = append(vals[k], v.Value)
			}
		}
		return vals, failed
	}
	bv, bfail := collect(base)
	cv, cfail := collect(change)
	var keys []key
	for k := range bv {
		if _, ok := cv[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		bi, bj := defs[keys[i].metric].Bound != 0, defs[keys[j].metric].Bound != 0
		if bi != bj {
			return bi // gated metrics first
		}
		if keys[i].metric != keys[j].metric {
			return keys[i].metric < keys[j].metric
		}
		return keys[i].workload < keys[j].workload
	})

	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tworkload\tverdict\tbase median\tchange median\tworse by\tbound\tbase spread\truns")
	bad := 0
	for _, k := range keys {
		def, ok := defs[k.metric]
		if !ok {
			continue
		}
		v, worse, spread := verdict(def, bv[k], cv[k])
		if v == "worse" {
			bad++
		}
		bound := "-"
		if def.Bound != 0 {
			bound = fmt.Sprintf("%.1f%%", 100*def.Bound)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g %s\t%.6g %s\t%+.2f%%\t%s\t%.2f%%\t%d/%d\n",
			k.metric, k.workload, v, median(bv[k]), def.Unit, median(cv[k]), def.Unit,
			100*worse, bound, 100*spread, len(bv[k]), len(cv[k]))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for wl, n := range cfail {
		if n > bfail[wl] {
			bad++
			fmt.Fprintf(w, "%s: %d failed operations in the change, %d in the base\n", wl, n, bfail[wl])
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d (metric, workload) pairs are worse than the base beyond their bound", bad)
	}
	return nil
}
