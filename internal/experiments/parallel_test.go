package experiments

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
)

func TestRunParallelPreservesSlotOrder(t *testing.T) {
	const n = 100
	out := make([]int, n)
	tasks := make([]RunTask, n)
	for i := 0; i < n; i++ {
		i := i
		tasks[i] = func() error {
			out[i] = i * i
			return nil
		}
	}
	for _, workers := range []int{0, 1, 3, 8, n + 5} {
		for i := range out {
			out[i] = -1
		}
		if err := RunParallel(tasks, workers); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestRunParallelFirstErrorByTaskOrder(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	tasks := []RunTask{
		func() error { return nil },
		func() error { return errA },
		func() error { return errB },
	}
	for _, workers := range []int{1, 4} {
		if err := RunParallel(tasks, workers); !errors.Is(err, errA) {
			t.Errorf("workers=%d: err = %v, want %v (first in task order)", workers, err, errA)
		}
	}
}

func TestRunParallelRunsEveryTask(t *testing.T) {
	var ran atomic.Int64
	tasks := make([]RunTask, 37)
	for i := range tasks {
		tasks[i] = func() error {
			ran.Add(1)
			return nil
		}
	}
	if err := RunParallel(tasks, 5); err != nil {
		t.Fatal(err)
	}
	if got := ran.Load(); got != 37 {
		t.Errorf("ran %d tasks, want 37", got)
	}
	if err := RunParallel(nil, 4); err != nil {
		t.Errorf("empty task list: %v", err)
	}
}

func TestWorkerBudget(t *testing.T) {
	cases := []struct {
		budget, tasks        int
		wantOuter, wantInner int
	}{
		{8, 8, 8, 1},  // wide sweep: saturate with whole runs
		{8, 16, 8, 1}, // more tasks than cores
		{8, 3, 3, 2},  // spare cores go to each run's phases
		{8, 1, 1, 8},  // single run gets the whole budget
		{1, 5, 1, 1},  // fully sequential
		{7, 2, 2, 3},  // non-divisible budget rounds down
		{4, 0, 1, 4},  // degenerate task count clamps to 1
		{20, 5, 5, 4}, // CI's parallel leg on a five-point sweep
	}
	for _, c := range cases {
		outer, inner := WorkerBudget(c.budget, c.tasks)
		if outer != c.wantOuter || inner != c.wantInner {
			t.Errorf("WorkerBudget(%d, %d) = (%d, %d), want (%d, %d)",
				c.budget, c.tasks, outer, inner, c.wantOuter, c.wantInner)
		}
		// Movement and query phases alternate and share the inner count, so
		// the subscription bound is outer × inner.
		if outer*inner > c.budget {
			t.Errorf("WorkerBudget(%d, %d) oversubscribes: %d×%d > budget",
				c.budget, c.tasks, outer, inner)
		}
	}
	if outer, inner := WorkerBudget(0, 4); outer < 1 || inner < 1 {
		t.Errorf("WorkerBudget(0, 4) = (%d, %d); zero budget must fall back to GOMAXPROCS", outer, inner)
	}
}

func TestSweepSeedDerivation(t *testing.T) {
	opts := Options{Seed: 5}
	s0 := sweepSeed(1, opts, 0, 0)
	s1 := sweepSeed(1, opts, 1, 0)
	if s0 == s1 {
		t.Error("independent sweep points share a seed")
	}
	if s0 != 6 {
		t.Errorf("point 0 seed = %d, want base+offset = 6", s0)
	}
	if r0, r1 := sweepSeed(1, opts, 0, 0), sweepSeed(1, opts, 0, 1); r0 == r1 {
		t.Error("repeats of the same point share a seed")
	}
	// The paired studies (free-vs-road modes, uncertain regions, Figure 17
	// scenes) pass point 0: base + offset + rep·7919, the rule their
	// committed results were generated with.
	if got := sweepSeed(1, opts, 0, 3); got != 1+5+3*7919 {
		t.Errorf("point 0 repeat 3 seed = %d, want %d", got, 1+5+3*7919)
	}
	if got := sweepSeed(1, opts, 2, 1); got != 1+5+2_000_000+7919 {
		t.Errorf("point 2 repeat 1 seed = %d, want %d", got, 1+5+2_000_000+7919)
	}
}

// smokeOpts is a cheap configuration for the parallel-vs-sequential
// determinism properties: the contract is byte equality, not figure quality,
// so the smallest region at an aggressive scale suffices.
func smokeOpts(workers int) Options {
	return Options{DurationScale: 30, HostScale: 2, Workers: workers}
}

// TestParallelMatchesSequentialSweep is the determinism contract of the
// sweep engine: any worker count must produce a bit-identical series.
func TestParallelMatchesSequentialSweep(t *testing.T) {
	seq, err := VelocitySweep(Riverside, Area2mi, smokeOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 4} {
		par, err := VelocitySweep(Riverside, Area2mi, smokeOpts(workers))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("workers=%d series diverged:\nseq: %+v\npar: %+v", workers, seq, par)
		}
		if got, want := FormatFigure(par), FormatFigure(seq); got != want {
			t.Errorf("workers=%d rendered output diverged:\n%s\nvs\n%s", workers, got, want)
		}
	}
}

// TestQueryWorkersMatchSequentialFigure pins the figure-level contract of
// the query pipeline at the outermost observable layer: the rendered text
// table and the persisted JSON document are byte-identical whether each
// world resolves its queries on 1, 4 or 8 workers. The inner count is driven
// through the budget alone: a five-point sweep at budget 5·n gives every
// world n movement and n query workers.
func TestQueryWorkersMatchSequentialFigure(t *testing.T) {
	render := func(inner int) (string, []byte) {
		opts := smokeOpts(5 * inner)
		if _, got := WorkerBudget(opts.Workers, 5); got != inner {
			t.Fatalf("budget %d gives %d inner workers, want %d", opts.Workers, got, inner)
		}
		fr, err := VelocitySweep(Riverside, Area2mi, opts)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := WriteFigureJSON(dir, []FigureResult{fr}); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, "fig13.json"))
		if err != nil {
			t.Fatal(err)
		}
		return FormatFigure(fr), data
	}
	wantText, wantJSON := render(1)
	for _, inner := range []int{4, 8} {
		gotText, gotJSON := render(inner)
		if gotText != wantText {
			t.Errorf("inner workers %d: figure text diverged:\n%s\nvs\n%s",
				inner, gotText, wantText)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("inner workers %d: figure JSON diverged:\n%s\nvs\n%s",
				inner, gotJSON, wantJSON)
		}
	}
}

// TestRepeatsReportStddev checks the Options.Repeats aggregation: repeated
// runs with distinct seeds produce a mean series with a non-degenerate
// sample standard deviation, while a single-run sweep leaves the Std fields
// zero (and therefore omitted from the JSON documents).
func TestRepeatsReportStddev(t *testing.T) {
	opts := smokeOpts(2)
	opts.Repeats = 2
	fr, err := VelocitySweep(Riverside, Area2mi, opts)
	if err != nil {
		t.Fatal(err)
	}
	anyStd := false
	for _, p := range fr.Points {
		if p.StdSingle < 0 || p.StdMulti < 0 || p.StdServer < 0 {
			t.Fatalf("negative stddev at x=%v: %+v", p.X, p)
		}
		for _, share := range []float64{p.ShareSingle, p.ShareMulti, p.ShareServer} {
			if share < 0 || share > 100 {
				t.Fatalf("mean share out of range at x=%v: %+v", p.X, p)
			}
		}
		anyStd = anyStd || p.StdSingle > 0 || p.StdMulti > 0 || p.StdServer > 0
	}
	if !anyStd {
		t.Error("two independent seeds produced zero variance at every point")
	}

	single, err := VelocitySweep(Riverside, Area2mi, smokeOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range single.Points {
		if p.StdSingle != 0 || p.StdMulti != 0 || p.StdServer != 0 {
			t.Fatalf("single-run sweep reported a stddev at x=%v: %+v", p.X, p)
		}
	}
}

func TestParallelMatchesSequentialFreeMovement(t *testing.T) {
	seq, err := FreeMovementComparison(Riverside, Area2mi, smokeOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := FreeMovementComparison(Riverside, Area2mi, smokeOpts(6))
	if err != nil {
		t.Fatal(err)
	}
	if seq != par {
		t.Errorf("free-movement comparison diverged: %+v vs %+v", seq, par)
	}
}

func TestParallelMatchesSequentialFig17(t *testing.T) {
	seq, err := EINNvsINN(Riverside, Area30mi, 40, smokeOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := EINNvsINN(Riverside, Area30mi, 40, smokeOpts(6))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("Fig17 diverged:\nseq: %+v\npar: %+v", seq, par)
	}
	if FormatFig17(seq) != FormatFig17(par) {
		t.Error("Fig17 rendered output diverged")
	}
}

func TestParallelMatchesSequentialDiskIO(t *testing.T) {
	seq, err := DiskIOStudy(Riverside, 30, smokeOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := DiskIOStudy(Riverside, 30, smokeOpts(6))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("disk I/O study diverged:\nseq: %+v\npar: %+v", seq, par)
	}
}

func TestParallelMatchesSequentialUncertain(t *testing.T) {
	seq, err := UncertainQuality(Area2mi, smokeOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := UncertainQuality(Area2mi, smokeOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	// Precision/RankAccuracy are NaN when no uncertain answer occurred at
	// this smoke scale; NaN != NaN would fail DeepEqual even on identical
	// runs, so map NaN to a sentinel first.
	norm := func(rs []UncertainQualityResult) []UncertainQualityResult {
		out := append([]UncertainQualityResult(nil), rs...)
		for i := range out {
			if math.IsNaN(out[i].Precision) {
				out[i].Precision = -1
			}
			if math.IsNaN(out[i].RankAccuracy) {
				out[i].RankAccuracy = -1
			}
		}
		return out
	}
	if !reflect.DeepEqual(norm(seq), norm(par)) {
		t.Errorf("uncertain-quality study diverged:\nseq: %+v\npar: %+v", seq, par)
	}
}
