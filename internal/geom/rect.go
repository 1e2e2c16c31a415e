package geom

import (
	"fmt"
	"math"
)

// Rect is a closed axis-aligned rectangle, the minimum bounding rectangle
// (MBR) type used by the R*-tree. Min must not exceed Max in either
// coordinate; use NewRect to normalize arbitrary corner pairs.
type Rect struct {
	Min, Max Point
}

// NewRect returns the rectangle spanning the two corner points, normalizing
// the corner order.
func NewRect(a, b Point) Rect {
	return Rect{
		Min: Point{math.Min(a.X, b.X), math.Min(a.Y, b.Y)},
		Max: Point{math.Max(a.X, b.X), math.Max(a.Y, b.Y)},
	}
}

// RectFromPoint returns the degenerate rectangle containing only p.
func RectFromPoint(p Point) Rect { return Rect{Min: p, Max: p} }

// EmptyRect returns the canonical empty rectangle: the identity element of
// Union, for which Contains and Intersects are always false.
func EmptyRect() Rect {
	return Rect{
		Min: Point{math.Inf(1), math.Inf(1)},
		Max: Point{math.Inf(-1), math.Inf(-1)},
	}
}

// IsEmpty reports whether r contains no points.
func (r Rect) IsEmpty() bool { return r.Min.X > r.Max.X || r.Min.Y > r.Max.Y }

// Width returns the extent of r along the x axis (0 when empty).
func (r Rect) Width() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.Max.X - r.Min.X
}

// Height returns the extent of r along the y axis (0 when empty).
func (r Rect) Height() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.Max.Y - r.Min.Y
}

// Area returns the area of r.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Margin returns half the perimeter of r, the "margin" metric minimized by
// the R* split algorithm.
func (r Rect) Margin() float64 { return r.Width() + r.Height() }

// Center returns the centroid of r.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// Contains reports whether p lies inside the closed rectangle r.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// ContainsRect reports whether s is entirely inside r. An empty s is
// contained in every rectangle.
func (r Rect) ContainsRect(s Rect) bool {
	if s.IsEmpty() {
		return true
	}
	return s.Min.X >= r.Min.X && s.Max.X <= r.Max.X &&
		s.Min.Y >= r.Min.Y && s.Max.Y <= r.Max.Y
}

// Intersects reports whether r and s share at least one point.
func (r Rect) Intersects(s Rect) bool {
	if r.IsEmpty() || s.IsEmpty() {
		return false
	}
	return r.Min.X <= s.Max.X && s.Min.X <= r.Max.X &&
		r.Min.Y <= s.Max.Y && s.Min.Y <= r.Max.Y
}

// Union returns the smallest rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	if r.IsEmpty() {
		return s
	}
	if s.IsEmpty() {
		return r
	}
	// The built-in min and max equal math.Min and math.Max on every NaN-free
	// input, signed zeros included, and compile inline.
	return Rect{
		Min: Point{min(r.Min.X, s.Min.X), min(r.Min.Y, s.Min.Y)},
		Max: Point{max(r.Max.X, s.Max.X), max(r.Max.Y, s.Max.Y)},
	}
}

// MinDist returns the minimum Euclidean distance from p to any point of r
// (zero when p is inside r). This is the MINDIST metric of Roussopoulos et
// al. used by every kNN tree-search variant in this repository.
func (r Rect) MinDist(p Point) float64 {
	dx := math.Max(0, math.Max(r.Min.X-p.X, p.X-r.Max.X))
	dy := math.Max(0, math.Max(r.Min.Y-p.Y, p.Y-r.Max.Y))
	return math.Hypot(dx, dy)
}

// MaxDist returns the maximum Euclidean distance from p to any point of r.
// This is the MAXDIST metric added by the paper's EINN algorithm (§3.3): an
// MBR with MaxDist below the branch-expanding lower bound lies entirely
// within the certain circle C_r and need not be expanded.
func (r Rect) MaxDist(p Point) float64 {
	if r.IsEmpty() {
		return 0
	}
	dx := math.Max(math.Abs(p.X-r.Min.X), math.Abs(p.X-r.Max.X))
	dy := math.Max(math.Abs(p.Y-r.Min.Y), math.Abs(p.Y-r.Max.Y))
	return math.Hypot(dx, dy)
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%s - %s]", r.Min, r.Max)
}
