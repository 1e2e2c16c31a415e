// Package geom provides the planar geometry substrate used throughout the
// SENN/SNNN reproduction: points, axis-aligned rectangles (MBRs), circles,
// and the union-of-circles "certain region" with its covered radius, the
// coverage predicate the multi-peer verification step needs (Lemma 3.8 of
// the paper).
//
// All coordinates are in meters. The package is purely computational and has
// no dependencies beyond the standard library.
package geom

import (
	"fmt"
	"math"
)

// Eps is the absolute tolerance used for geometric predicates. Coordinates in
// this system span at most ~5e4 m, so 1e-9 m is far below any meaningful
// resolution while staying well above float64 noise for the involved
// magnitudes.
const Eps = 1e-9

// Point is a location in the plane, in meters.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Dist2 returns the squared Euclidean distance between p and q. It avoids the
// square root and is the preferred comparison key in hot paths.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Add returns p translated by the vector q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s about the origin.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Dot returns the dot product of p and q viewed as vectors.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Cross returns the z component of the cross product of p and q viewed as
// vectors. It is positive when q lies counter-clockwise of p.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Norm returns the Euclidean length of p viewed as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Lerp returns the point a fraction t of the way from p to q. t is not
// clamped, so t<0 and t>1 extrapolate.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// Eq reports whether p and q coincide within Eps in both coordinates.
func (p Point) Eq(q Point) bool {
	return math.Abs(p.X-q.X) <= Eps && math.Abs(p.Y-q.Y) <= Eps
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.3f, %.3f)", p.X, p.Y) }

// SegmentClosest returns the point on segment [a,b] closest to p, and the
// parameter t in [0,1] such that the returned point is a.Lerp(b, t).
func SegmentClosest(p, a, b Point) (Point, float64) {
	ab := b.Sub(a)
	len2 := ab.Dot(ab)
	if len2 <= Eps*Eps {
		return a, 0
	}
	t := p.Sub(a).Dot(ab) / len2
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	return a.Lerp(b, t), t
}

// SegmentDist returns the Euclidean distance from p to segment [a,b].
func SegmentDist(p, a, b Point) float64 {
	c, _ := SegmentClosest(p, a, b)
	return p.Dist(c)
}

// SegmentsIntersect reports whether the closed segments [a,b] and [c,d] share
// at least one point, and returns one such point when they do. Collinear
// overlapping segments report an arbitrary shared point.
func SegmentsIntersect(a, b, c, d Point) (Point, bool) {
	r := b.Sub(a)
	s := d.Sub(c)
	denom := r.Cross(s)
	qp := c.Sub(a)
	if math.Abs(denom) <= Eps {
		// Parallel. Overlap only if collinear.
		if math.Abs(qp.Cross(r)) > Eps {
			return Point{}, false
		}
		rr := r.Dot(r)
		if rr <= Eps*Eps {
			// a==b: degenerate segment; intersects iff a lies on [c,d].
			if SegmentDist(a, c, d) <= Eps {
				return a, true
			}
			return Point{}, false
		}
		t0 := qp.Dot(r) / rr
		t1 := t0 + s.Dot(r)/rr
		lo, hi := math.Min(t0, t1), math.Max(t0, t1)
		if hi < -Eps || lo > 1+Eps {
			return Point{}, false
		}
		t := math.Max(0, lo)
		return a.Lerp(b, t), true
	}
	t := qp.Cross(s) / denom
	u := qp.Cross(r) / denom
	if t < -Eps || t > 1+Eps || u < -Eps || u > 1+Eps {
		return Point{}, false
	}
	return a.Lerp(b, t), true
}
