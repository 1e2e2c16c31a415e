package geom

// The paper's §3.2.2 construction of the Lemma 3.8 coverage test — circles
// polygonized, coverage decided by convex-polygon subtraction (DESIGN.md
// substitution D1). Production verifies with the exact arc method
// (Region.CoversCircle / MaxCoveredRadius); this file keeps the paper's
// construction as the independent cross-check the tests in this package
// validate the exact method against, at explicit fidelities.

import (
	"fmt"
	"math"
)

// ConvexPolygon is a convex polygon with vertices in counter-clockwise order.
// The zero value is the empty polygon. Construct arbitrary instances with
// NewConvexPolygon, which validates convexity and orientation.
type ConvexPolygon struct {
	vertices []Point
}

// NewConvexPolygon builds a convex polygon from vertices given in either
// orientation. It returns an error if fewer than three distinct vertices are
// supplied or the vertex sequence is not convex.
func NewConvexPolygon(pts []Point) (ConvexPolygon, error) {
	if len(pts) < 3 {
		return ConvexPolygon{}, fmt.Errorf("geom: convex polygon needs >= 3 vertices, got %d", len(pts))
	}
	vs := make([]Point, len(pts))
	copy(vs, pts)
	if signedArea(vs) < 0 {
		reverse(vs)
	}
	// Verify convexity: every consecutive triple must turn left or be
	// collinear.
	n := len(vs)
	for i := 0; i < n; i++ {
		a, b, c := vs[i], vs[(i+1)%n], vs[(i+2)%n]
		if b.Sub(a).Cross(c.Sub(b)) < -1e-7 {
			return ConvexPolygon{}, fmt.Errorf("geom: vertices are not convex at index %d", (i+1)%n)
		}
	}
	return ConvexPolygon{vertices: vs}, nil
}

func signedArea(vs []Point) float64 {
	var a float64
	n := len(vs)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		a += vs[i].Cross(vs[j])
	}
	return a / 2
}

func reverse(vs []Point) {
	for i, j := 0, len(vs)-1; i < j; i, j = i+1, j-1 {
		vs[i], vs[j] = vs[j], vs[i]
	}
}

// IsEmpty reports whether the polygon has no interior.
func (p ConvexPolygon) IsEmpty() bool { return len(p.vertices) < 3 }

// Vertices returns a copy of the vertex ring in counter-clockwise order.
func (p ConvexPolygon) Vertices() []Point {
	out := make([]Point, len(p.vertices))
	copy(out, p.vertices)
	return out
}

// NumVertices returns the number of vertices.
func (p ConvexPolygon) NumVertices() int { return len(p.vertices) }

// Area returns the area of the polygon.
func (p ConvexPolygon) Area() float64 {
	if p.IsEmpty() {
		return 0
	}
	return signedArea(p.vertices)
}

// Bounds returns the MBR of the polygon.
func (p ConvexPolygon) Bounds() Rect {
	r := EmptyRect()
	for _, v := range p.vertices {
		r = r.Union(RectFromPoint(v))
	}
	return r
}

// Centroid returns the area centroid of the polygon. It panics on the empty
// polygon.
func (p ConvexPolygon) Centroid() Point {
	if p.IsEmpty() {
		panic("geom: centroid of empty polygon")
	}
	var cx, cy, a float64
	n := len(p.vertices)
	for i := 0; i < n; i++ {
		v, w := p.vertices[i], p.vertices[(i+1)%n]
		cr := v.Cross(w)
		cx += (v.X + w.X) * cr
		cy += (v.Y + w.Y) * cr
		a += cr
	}
	if math.Abs(a) <= Eps {
		// Degenerate (collinear) polygon: fall back to the vertex mean.
		var m Point
		for _, v := range p.vertices {
			m = m.Add(v)
		}
		return m.Scale(1 / float64(n))
	}
	return Point{cx / (3 * a), cy / (3 * a)}
}

// Contains reports whether q lies in the closed polygon.
func (p ConvexPolygon) Contains(q Point) bool {
	n := len(p.vertices)
	if n < 3 {
		return false
	}
	for i := 0; i < n; i++ {
		a, b := p.vertices[i], p.vertices[(i+1)%n]
		if b.Sub(a).Cross(q.Sub(a)) < -1e-7 {
			return false
		}
	}
	return true
}

// HalfPlane is the set of points q with Normal·q <= Offset. Each directed
// edge (a -> b) of a counter-clockwise convex polygon induces the half-plane
// containing the polygon's interior.
type HalfPlane struct {
	Normal Point
	Offset float64
}

// EdgeHalfPlane returns the half-plane to the left of the directed edge
// a -> b, i.e. the side containing the interior of a counter-clockwise
// polygon that uses the edge.
func EdgeHalfPlane(a, b Point) HalfPlane {
	d := b.Sub(a)
	n := Point{d.Y, -d.X} // outward normal for a CCW edge
	return HalfPlane{Normal: n, Offset: n.Dot(a)}
}

// Contains reports whether q lies in the closed half-plane.
func (h HalfPlane) Contains(q Point) bool {
	return h.Normal.Dot(q) <= h.Offset+Eps*(1+h.Normal.Norm())
}

// Complement returns the closed complement half-plane (the two closed
// half-planes overlap on the boundary line, which has zero area and is
// irrelevant to the area-based predicates in this package).
func (h HalfPlane) Complement() HalfPlane {
	return HalfPlane{Normal: h.Normal.Scale(-1), Offset: -h.Offset}
}

// HalfPlanes returns the half-planes whose intersection is the polygon, one
// per edge, in edge order.
func (p ConvexPolygon) HalfPlanes() []HalfPlane {
	n := len(p.vertices)
	out := make([]HalfPlane, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, EdgeHalfPlane(p.vertices[i], p.vertices[(i+1)%n]))
	}
	return out
}

// ClipHalfPlane returns the intersection of the polygon with the half-plane,
// using one pass of the Sutherland–Hodgman algorithm. The result is convex
// and may be empty.
func (p ConvexPolygon) ClipHalfPlane(h HalfPlane) ConvexPolygon {
	n := len(p.vertices)
	if n == 0 {
		return ConvexPolygon{}
	}
	scale := 1 + h.Normal.Norm()
	dist := func(q Point) float64 { return h.Normal.Dot(q) - h.Offset }
	out := make([]Point, 0, n+1)
	for i := 0; i < n; i++ {
		cur, next := p.vertices[i], p.vertices[(i+1)%n]
		dc, dn := dist(cur), dist(next)
		inC, inN := dc <= Eps*scale, dn <= Eps*scale
		if inC {
			out = append(out, cur)
		}
		if inC != inN {
			// The edge crosses the boundary line; add the crossing point.
			t := dc / (dc - dn)
			out = append(out, cur.Lerp(next, t))
		}
	}
	if len(out) < 3 {
		return ConvexPolygon{}
	}
	res := ConvexPolygon{vertices: dedupeRing(out)}
	if res.NumVertices() < 3 || res.Area() <= Eps {
		return ConvexPolygon{}
	}
	return res
}

// dedupeRing removes consecutive (near-)duplicate vertices from a ring.
func dedupeRing(vs []Point) []Point {
	out := vs[:0:0]
	for _, v := range vs {
		if len(out) == 0 || !out[len(out)-1].Eq(v) {
			out = append(out, v)
		}
	}
	if len(out) > 1 && out[0].Eq(out[len(out)-1]) {
		out = out[:len(out)-1]
	}
	return out
}

// IntersectConvex returns the intersection of two convex polygons, computed
// by clipping p against every half-plane of q.
func (p ConvexPolygon) IntersectConvex(q ConvexPolygon) ConvexPolygon {
	out := p
	for _, h := range q.HalfPlanes() {
		out = out.ClipHalfPlane(h)
		if out.IsEmpty() {
			return ConvexPolygon{}
		}
	}
	return out
}

// SubtractConvex returns the set difference p \ q as a slice of disjoint
// convex pieces (up to one per edge of q). This is the decomposition
//
//	p \ q  =  ⋃_i  p ∩ H̄_i ∩ H_1 ∩ … ∩ H_{i-1}
//
// where H_i are q's interior half-planes and H̄_i their complements. Pieces
// with area below areaEps are dropped; pass 0 to keep everything.
func (p ConvexPolygon) SubtractConvex(q ConvexPolygon, areaEps float64) []ConvexPolygon {
	if p.IsEmpty() {
		return nil
	}
	if q.IsEmpty() {
		return []ConvexPolygon{p}
	}
	hs := q.HalfPlanes()
	var pieces []ConvexPolygon
	remain := p // p ∩ H_1 ∩ … ∩ H_{i-1}, maintained incrementally
	for _, h := range hs {
		piece := remain.ClipHalfPlane(h.Complement())
		if !piece.IsEmpty() && piece.Area() > areaEps {
			pieces = append(pieces, piece)
		}
		remain = remain.ClipHalfPlane(h)
		if remain.IsEmpty() {
			break
		}
	}
	return pieces
}

// String implements fmt.Stringer.
func (p ConvexPolygon) String() string {
	return fmt.Sprintf("polygon(%d vertices, area=%.3f)", len(p.vertices), p.Area())
}

// InscribedPolygon returns the regular n-gon inscribed in c (a subset of the
// disc). n must be at least 3. The polygonization step of the paper's
// kNN_multiple (§3.2.2) uses inscribed polygons for the peers' certain
// circles so that the merged region under-approximates the true certain
// region and verification stays sound.
func (c Circle) InscribedPolygon(n int) ConvexPolygon {
	if n < 3 {
		panic(fmt.Sprintf("geom: inscribed polygon needs >= 3 vertices, got %d", n))
	}
	pts := make([]Point, n)
	for i := 0; i < n; i++ {
		pts[i] = c.PointAt(2 * math.Pi * float64(i) / float64(n))
	}
	return ConvexPolygon{vertices: pts}
}

// CircumscribedPolygon returns the regular n-gon circumscribed about c (a
// superset of the disc), with edge midpoints touching the circle. n must be
// at least 3. The candidate circle C_ni of Lemma 3.8 uses the circumscribed
// polygon so that coverage of the polygon implies coverage of the disc.
func (c Circle) CircumscribedPolygon(n int) ConvexPolygon {
	if n < 3 {
		panic(fmt.Sprintf("geom: circumscribed polygon needs >= 3 vertices, got %d", n))
	}
	// Scale the inscribed polygon's vertices so its edges become tangent.
	r := c.Radius / math.Cos(math.Pi/float64(n))
	pts := make([]Point, n)
	for i := 0; i < n; i++ {
		theta := 2 * math.Pi * (float64(i) + 0.5) / float64(n)
		pts[i] = Point{
			X: c.Center.X + r*math.Cos(theta),
			Y: c.Center.Y + r*math.Sin(theta),
		}
	}
	return ConvexPolygon{vertices: pts}
}

// CoversCirclePolygonized is the paper-faithful variant of CoversCircle
// (§3.2.2, DESIGN.md substitution D1): the candidate disc is
// over-approximated by its circumscribed polygon, each region disc is
// under-approximated by its inscribed polygon, and coverage is decided by
// subtracting region polygons from the candidate until either nothing
// remains (covered) or residual area survives (not covered). The test is
// conservative for any polygon fidelity (vertices per polygonized circle, at
// least 3), so every "certain" verdict remains sound.
func (r *Region) CoversCirclePolygonized(c Circle, vertices int) bool {
	if c.Radius <= Eps {
		return r.Contains(c.Center)
	}
	for _, rc := range r.circles {
		if rc.ContainsCircle(c) {
			return true
		}
	}
	if !r.Bounds().ContainsRect(c.Bounds()) {
		return false
	}
	var overlapping []Circle
	for _, rc := range r.circles {
		if rc.Radius > Eps && rc.Intersects(c) {
			overlapping = append(overlapping, rc)
		}
	}
	if len(overlapping) == 0 {
		return false
	}

	candidate := c.CircumscribedPolygon(vertices)
	// Slivers below this area are treated as numerical noise. It scales with
	// the candidate size so the predicate is unit-independent.
	areaEps := math.Max(c.Area()*1e-9, 1e-12)

	residual := []ConvexPolygon{candidate}
	// Piece-count guard: the residual decomposition can in principle grow
	// multiplicatively with many overlapping circles. Beyond the cap the
	// test answers false, which is the conservative (sound) direction.
	const maxPieces = 4096
	for _, rc := range overlapping {
		cover := rc.InscribedPolygon(vertices)
		next := residual[:0:0]
		for _, piece := range residual {
			next = append(next, piece.SubtractConvex(cover, areaEps)...)
		}
		residual = next
		if len(residual) == 0 {
			return true
		}
		if len(residual) > maxPieces {
			return false
		}
	}
	var left float64
	for _, piece := range residual {
		left += piece.Area()
	}
	return left <= math.Max(c.Area()*1e-7, 1e-10)
}
