package sim

// series.go adds windowed time-series instrumentation to the simulator. The
// paper records results "after the system reached steady state"; the series
// makes that observable: it reports the query-resolution mix per time window
// from t=0, so the warm-up transient (caches filling up, SQRR falling) and
// the steady-state plateau are visible and testable.

import "repro/internal/core"

// WindowPoint is the query-resolution mix of one time window.
type WindowPoint struct {
	// Start and End bound the window in simulated seconds.
	Start, End float64
	// Queries launched within the window.
	Queries int64
	// Single, Multi, Uncertain and Server partition Queries.
	Single, Multi, Uncertain, Server int64
}

// SQRR is the window's server share in percent.
func (p WindowPoint) SQRR() float64 {
	if p.Queries == 0 {
		return 0
	}
	return 100 * float64(p.Server) / float64(p.Queries)
}

// seriesRecorder accumulates WindowPoints during a run.
type seriesRecorder struct {
	window float64
	cur    WindowPoint
	points []WindowPoint
}

func newSeriesRecorder(window float64) *seriesRecorder {
	return &seriesRecorder{
		window: window,
		cur:    WindowPoint{Start: 0, End: window},
	}
}

// observe records one query outcome at simulated time now.
func (s *seriesRecorder) observe(now float64, src core.Source) {
	for now >= s.cur.End {
		s.flush()
	}
	s.cur.Queries++
	switch src {
	case core.SolvedBySinglePeer:
		s.cur.Single++
	case core.SolvedByMultiPeer:
		s.cur.Multi++
	case core.SolvedUncertain:
		s.cur.Uncertain++
	default:
		s.cur.Server++
	}
}

func (s *seriesRecorder) flush() {
	s.points = append(s.points, s.cur)
	s.cur = WindowPoint{Start: s.cur.End, End: s.cur.End + s.window}
}

// finish closes the current window and returns all points.
func (s *seriesRecorder) finish() []WindowPoint {
	if s.cur.Queries > 0 {
		s.flush()
	}
	return s.points
}
