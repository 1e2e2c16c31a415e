package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func boundedPt(x, y float64) Point {
	return Pt(clampCoord(x), clampCoord(y))
}

// Rect algebra properties: union covers both operands, and MinDist/MaxDist
// respect containment ordering.
func TestRectAlgebraQuick(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, dx, dy, px, py float64) bool {
		r := NewRect(boundedPt(ax, ay), boundedPt(bx, by))
		s := NewRect(boundedPt(cx, cy), boundedPt(dx, dy))
		p := boundedPt(px, py)

		u := r.Union(s)
		if !u.ContainsRect(r) || !u.ContainsRect(s) {
			return false
		}
		// Union can only reduce MinDist and raise MaxDist.
		if u.MinDist(p) > r.MinDist(p)+1e-9 {
			return false
		}
		if u.MaxDist(p)+1e-9 < r.MaxDist(p) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Circle containment transitivity: a ⊇ b and b ⊇ c imply a ⊇ c.
func TestCircleContainmentTransitiveQuick(t *testing.T) {
	f := func(ax, ay, ar, bx, by, br, cx, cy, cr float64) bool {
		a := NewCircle(boundedPt(ax, ay), math.Abs(clampCoord(ar)))
		b := NewCircle(boundedPt(bx, by), math.Abs(clampCoord(br)))
		c := NewCircle(boundedPt(cx, cy), math.Abs(clampCoord(cr)))
		if a.ContainsCircle(b) && b.ContainsCircle(c) {
			// Allow epsilon slack accumulation over two containments.
			return a.Center.Dist(c.Center)+c.Radius <= a.Radius+3*Eps
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Region coverage is monotone: adding circles never turns a covered disc
// uncovered, and shrinking a covered disc keeps it covered.
func TestRegionMonotoneQuick(t *testing.T) {
	f := func(cx, cy, cr, ex, ey, er, qx, qy, qr, shrink float64) bool {
		base := NewCircle(boundedPt(cx, cy), math.Abs(clampCoord(cr)))
		extra := NewCircle(boundedPt(ex, ey), math.Abs(clampCoord(er)))
		cand := NewCircle(boundedPt(qx, qy), math.Abs(clampCoord(qr)))
		r1 := NewRegion(base)
		if !r1.CoversCircle(cand) {
			return true
		}
		// Adding a circle must preserve coverage.
		r2 := NewRegion(base, extra)
		if !r2.CoversCircle(cand) {
			return false
		}
		// A concentric smaller disc stays covered.
		f := math.Abs(math.Mod(shrink, 1))
		smaller := NewCircle(cand.Center, cand.Radius*f)
		return r1.CoversCircle(smaller)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Segment intersection commutes with endpoint swaps.
func TestSegmentsIntersectSwapQuick(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, dx, dy float64) bool {
		a, b := boundedPt(ax, ay), boundedPt(bx, by)
		c, d := boundedPt(cx, cy), boundedPt(dx, dy)
		_, r1 := SegmentsIntersect(a, b, c, d)
		_, r2 := SegmentsIntersect(b, a, c, d)
		_, r3 := SegmentsIntersect(a, b, d, c)
		return r1 == r2 && r2 == r3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
