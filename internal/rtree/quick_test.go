package rtree

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

// sanitize maps arbitrary floats into a bounded coordinate.
func sanitize(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 1e5)
}

// Any batch of points, built at any fan-out from 4 to 32, is a valid tree
// from which a covering search retrieves every item exactly once, at its
// own point.
func TestBuildRetrieveQuick(t *testing.T) {
	f := func(coords []float64, fan uint8) bool {
		pts := make([]geom.Point, len(coords)/2)
		for i := range pts {
			pts[i] = geom.Pt(sanitize(coords[2*i]), sanitize(coords[2*i+1]))
		}
		tr := buildPoints(4+int(fan)%29, pts)
		if err := tr.CheckInvariants(); err != nil {
			t.Log(err)
			return false
		}
		found := make([]bool, len(pts))
		ok := true
		tr.Search(geom.NewRect(geom.Pt(-1e6, -1e6), geom.Pt(1e6, 1e6)), func(p geom.Point, d int32) bool {
			ok = ok && !found[d] && p == pts[d]
			found[d] = true
			return ok
		})
		for _, f := range found {
			ok = ok && f
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
