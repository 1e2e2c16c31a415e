package sim

import (
	"testing"

	"repro/internal/core"
)

func TestSeriesRecorderWindows(t *testing.T) {
	s := newSeriesRecorder(10)
	s.observe(1, core.SolvedByServer)
	s.observe(2, core.SolvedBySinglePeer)
	s.observe(12, core.SolvedByServer)    // second window
	s.observe(35, core.SolvedByMultiPeer) // fourth window (skipping the third)
	pts := s.finish()
	if len(pts) != 4 {
		t.Fatalf("got %d windows, want 4", len(pts))
	}
	if pts[0].Queries != 2 || pts[0].Server != 1 || pts[0].Single != 1 {
		t.Errorf("window 0 = %+v", pts[0])
	}
	if pts[1].Queries != 1 || pts[1].Server != 1 {
		t.Errorf("window 1 = %+v", pts[1])
	}
	if pts[2].Queries != 0 {
		t.Errorf("empty window 2 = %+v", pts[2])
	}
	if pts[3].Multi != 1 {
		t.Errorf("window 3 = %+v", pts[3])
	}
	if pts[0].SQRR() != 50 {
		t.Errorf("window 0 SQRR = %v", pts[0].SQRR())
	}
	if (WindowPoint{}).SQRR() != 0 {
		t.Error("empty window SQRR should be 0")
	}
	// Window boundaries contiguous.
	for i := 1; i < len(pts); i++ {
		if pts[i].Start != pts[i-1].End {
			t.Errorf("window %d not contiguous: %v after %v", i, pts[i].Start, pts[i-1].End)
		}
	}
}

// A full simulation with the series enabled must show the warm-up transient:
// the server share of the first window exceeds the last window's (caches
// fill up over time), and the total query count matches the series sum.
func TestSeriesShowsSteadyStateConvergence(t *testing.T) {
	cfg := smallConfig()
	cfg.Duration = 600
	cfg.SeriesWindow = 60
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := w.Run()
	series := w.Series()
	if len(series) < 5 {
		t.Fatalf("series has %d windows", len(series))
	}
	var total, recorded int64
	for _, p := range series {
		total += p.Queries
	}
	recorded = m.TotalQueries
	if total < recorded {
		t.Errorf("series total %d below recorded %d", total, recorded)
	}
	first, last := series[0], series[len(series)-1]
	if last.Queries == 0 {
		last = series[len(series)-2]
	}
	if first.SQRR() <= last.SQRR() {
		t.Errorf("no warm-up transient visible: first window SQRR %.1f <= last %.1f",
			first.SQRR(), last.SQRR())
	}
}

func TestSeriesDisabledByDefault(t *testing.T) {
	w, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	_ = w.Run()
	if w.Series() != nil {
		t.Error("series recorded without SeriesWindow")
	}
}
