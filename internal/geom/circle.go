package geom

import (
	"fmt"
	"math"
)

// Circle is a closed disc with the given center and radius. In the SENN
// verification algorithms a circle around a peer's cached query location with
// radius Dist(P, n_k) bounds the peer's "certain area": every point of
// interest inside it is known to the peer.
type Circle struct {
	Center Point
	Radius float64
}

// NewCircle returns the disc with the given center and radius. A negative
// radius is treated as zero.
func NewCircle(c Point, r float64) Circle {
	if r < 0 {
		r = 0
	}
	return Circle{Center: c, Radius: r}
}

// Contains reports whether p lies in the closed disc.
func (c Circle) Contains(p Point) bool {
	return c.Center.Dist2(p) <= (c.Radius+Eps)*(c.Radius+Eps)
}

// ContainsCircle reports whether the disc d is entirely inside c.
func (c Circle) ContainsCircle(d Circle) bool {
	return c.Center.Dist(d.Center)+d.Radius <= c.Radius+Eps
}

// Intersects reports whether the two closed discs share at least one point.
func (c Circle) Intersects(d Circle) bool {
	sum := c.Radius + d.Radius
	return c.Center.Dist2(d.Center) <= (sum+Eps)*(sum+Eps)
}

// Area returns the area of the disc.
func (c Circle) Area() float64 { return math.Pi * c.Radius * c.Radius }

// Bounds returns the MBR of the disc.
func (c Circle) Bounds() Rect {
	return Rect{
		Min: Point{c.Center.X - c.Radius, c.Center.Y - c.Radius},
		Max: Point{c.Center.X + c.Radius, c.Center.Y + c.Radius},
	}
}

// PointAt returns the boundary point at angle theta (radians, measured
// counter-clockwise from the positive x axis).
func (c Circle) PointAt(theta float64) Point {
	return Point{
		X: c.Center.X + c.Radius*math.Cos(theta),
		Y: c.Center.Y + c.Radius*math.Sin(theta),
	}
}

// String implements fmt.Stringer.
func (c Circle) String() string {
	return fmt.Sprintf("circle(%s, r=%.3f)", c.Center, c.Radius)
}
