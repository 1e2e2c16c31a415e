package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestMaxCoveredRadiusTangentCircles(t *testing.T) {
	// Externally tangent discs: the union pinches to a point at (5,0), so
	// from either center the threshold is that disc's own radius.
	ext := NewRegion(NewCircle(Pt(0, 0), 5), NewCircle(Pt(10, 0), 5))
	if got := ext.MaxCoveredRadius(Pt(0, 0), 20); math.Abs(got-5) > 1e-9 {
		t.Errorf("external tangency: MaxCoveredRadius = %v, want 5", got)
	}
	// Internally tangent discs: the small disc is dominated by the big one;
	// only the big boundary is exposed.
	intl := NewRegion(NewCircle(Pt(0, 0), 10), NewCircle(Pt(5, 0), 5))
	if got := intl.MaxCoveredRadius(Pt(5, 0), 20); math.Abs(got-5) > 1e-9 {
		t.Errorf("internal tangency: MaxCoveredRadius = %v, want 5", got)
	}
	if got := intl.MaxCoveredRadius(Pt(0, 0), 20); math.Abs(got-10) > 1e-9 {
		t.Errorf("internal tangency at big center: MaxCoveredRadius = %v, want 10", got)
	}
}

func TestMaxCoveredRadiusCenterOutside(t *testing.T) {
	r := NewRegion(NewCircle(Pt(0, 0), 5), NewCircle(Pt(20, 0), 3))
	if got := r.MaxCoveredRadius(Pt(10, 0), 4); got != 0 {
		t.Errorf("center outside all circles: MaxCoveredRadius = %v, want 0", got)
	}
	// A point circle (radius at most Eps) contributes no interior: a
	// center covered only by it has uncovered points arbitrarily close.
	for _, radius := range []float64{0, Eps / 2} {
		pt := NewRegion(NewCircle(Pt(7, 7), radius))
		if got := pt.MaxCoveredRadius(Pt(7, 7), 4); got != 0 {
			t.Errorf("point-circle-only coverage (radius %g): MaxCoveredRadius = %v, want 0", radius, got)
		}
	}
	if NewRegion().MaxCoveredRadius(Pt(0, 0), 4) != 0 {
		t.Error("empty region: MaxCoveredRadius should be 0")
	}
}

func TestMaxCoveredRadiusClampBelowFirstGap(t *testing.T) {
	// hi smaller than the distance to the nearest exposed boundary: every
	// per-circle scan is pruned and the cap comes back unchanged.
	r := NewRegion(NewCircle(Pt(-0.5, 0), 10), NewCircle(Pt(0.5, 0), 10))
	if got := r.MaxCoveredRadius(Pt(0, 0), 3); got != 3 {
		t.Errorf("clamped MaxCoveredRadius = %v, want 3", got)
	}
}

func TestMaxCoveredRadiusDuplicateCircles(t *testing.T) {
	// Identical discs cover each other's boundary completely; the index
	// tie-break must keep one copy of the shared boundary in the
	// arrangement instead of letting the duplicates erase each other.
	r := NewRegion(NewCircle(Pt(0, 0), 10), NewCircle(Pt(0, 0), 10))
	if got := r.MaxCoveredRadius(Pt(3, 0), 20); math.Abs(got-7) > 1e-9 {
		t.Errorf("duplicate circles: MaxCoveredRadius = %v, want 7", got)
	}
	r3 := NewRegion(
		NewCircle(Pt(0, 0), 10), NewCircle(Pt(0, 0), 10), NewCircle(Pt(0, 0), 10),
	)
	if got := r3.MaxCoveredRadius(Pt(0, 0), 20); math.Abs(got-10) > 1e-9 {
		t.Errorf("triplicate circles: MaxCoveredRadius = %v, want 10", got)
	}
}

func TestMaxCoveredRadiusVertexBound(t *testing.T) {
	// Two-disc union from TestExactTighterThanPolygonized: the threshold at
	// the origin is set by the intersection vertices (0, ±sqrt(99.75)), not
	// by either disc alone.
	r := NewRegion(NewCircle(Pt(-0.5, 0), 10), NewCircle(Pt(0.5, 0), 10))
	want := math.Sqrt(99.75)
	if got := r.MaxCoveredRadius(Pt(0, 0), 20); math.Abs(got-want) > 1e-9 {
		t.Errorf("vertex-bound MaxCoveredRadius = %v, want %v", got, want)
	}
	// Point circles sitting on both vertices cover nothing, so they must
	// not hide the vertices they sit on: the bound is still 0.8.
	pts := NewRegion(
		NewCircle(Pt(0, 0), 1), NewCircle(Pt(1.2, 0), 1),
		NewCircle(Pt(0.6, 0.8), Eps/2), NewCircle(Pt(0.6, -0.8), Eps/2),
	)
	if got := pts.MaxCoveredRadius(Pt(0.6, 0), 10); math.Abs(got-0.8) > 1e-9 {
		t.Errorf("vertices under point circles: MaxCoveredRadius = %v, want 0.8", got)
	}
}

func TestMaxCoveredRadiusHole(t *testing.T) {
	// Three discs around the origin leaving an interior hole: centers 10
	// from the origin, radius 9, pairwise overlapping. From p = (0,3) the
	// nearest uncovered point is (0,1) on the hole side of the top disc.
	r := NewRegion(
		NewCircle(Pt(0, 10), 9),
		NewCircle(Pt(10*math.Cos(7*math.Pi/6), 10*math.Sin(7*math.Pi/6)), 9),
		NewCircle(Pt(10*math.Cos(-math.Pi/6), 10*math.Sin(-math.Pi/6)), 9),
	)
	if r.Contains(Pt(0, 0)) {
		t.Fatal("test geometry broken: origin should sit in the hole")
	}
	if got := r.MaxCoveredRadius(Pt(0, 3), 20); math.Abs(got-2) > 1e-9 {
		t.Errorf("hole-bounded MaxCoveredRadius = %v, want 2", got)
	}
}

// checkMaxCoveredRadiusAgreement cross-validates the one-pass threshold
// against CoversCircle: coverage must hold at a radius just below the
// returned bound and fail just above it (unless the bound was clamped at hi).
func checkMaxCoveredRadiusAgreement(t *testing.T, r *Region, p Point, hi float64) {
	t.Helper()
	rho := r.MaxCoveredRadius(p, hi)
	if rho < 0 || rho > hi {
		t.Fatalf("MaxCoveredRadius(%v, %v) = %v out of range", p, hi, rho)
	}
	margin := 1e-6 * (1 + rho)
	if rho > margin {
		if c := NewCircle(p, rho-margin); !r.CoversCircle(c) {
			t.Errorf("CoversCircle false just below bound: p=%v rho=%v circles=%v",
				p, rho, r.Circles())
		}
	}
	if rho+margin < hi {
		if c := NewCircle(p, rho+margin); r.CoversCircle(c) {
			t.Errorf("CoversCircle true just above bound: p=%v rho=%v circles=%v",
				p, rho, r.Circles())
		}
	}
}

func randomAgreementCase(rng *rand.Rand) (*Region, Point, float64) {
	var circles []Circle
	n := 1 + rng.Intn(6)
	for j := 0; j < n; j++ {
		circles = append(circles, NewCircle(
			Pt(rng.Float64()*20-10, rng.Float64()*20-10),
			rng.Float64()*8+0.2,
		))
	}
	// Occasionally inject a duplicate or a point circle to hit the
	// degenerate arrangement paths.
	if rng.Intn(4) == 0 {
		circles = append(circles, circles[rng.Intn(len(circles))])
	}
	if rng.Intn(4) == 0 {
		circles = append(circles, NewCircle(Pt(rng.Float64()*20-10, rng.Float64()*20-10), 0))
	}
	// Bias p toward a circle center so the covered case is common.
	base := circles[rng.Intn(len(circles))]
	p := Pt(
		base.Center.X+(rng.Float64()*2-1)*base.Radius,
		base.Center.Y+(rng.Float64()*2-1)*base.Radius,
	)
	hi := rng.Float64()*12 + 0.5
	return NewRegion(circles...), p, hi
}

func TestMaxCoveredRadiusAgreesWithCoversCircleRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	for i := 0; i < 2000; i++ {
		r, p, hi := randomAgreementCase(rng)
		checkMaxCoveredRadiusAgreement(t, r, p, hi)
	}
}

func FuzzMaxCoveredRadiusAgreesWithCoversCircle(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, 1234, 987654321} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 16; i++ {
			r, p, hi := randomAgreementCase(rng)
			checkMaxCoveredRadiusAgreement(t, r, p, hi)
		}
	})
}
