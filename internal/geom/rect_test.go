package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestNewRectNormalizes(t *testing.T) {
	r := NewRect(Pt(5, 1), Pt(2, 7))
	if r.Min != Pt(2, 1) || r.Max != Pt(5, 7) {
		t.Errorf("NewRect did not normalize corners: %v", r)
	}
}

func TestEmptyRect(t *testing.T) {
	e := EmptyRect()
	if !e.IsEmpty() {
		t.Fatal("EmptyRect not empty")
	}
	if e.Area() != 0 || e.Width() != 0 || e.Height() != 0 || e.Margin() != 0 {
		t.Error("empty rect should have zero measures")
	}
	if e.Contains(Pt(0, 0)) {
		t.Error("empty rect should contain nothing")
	}
	r := NewRect(Pt(0, 0), Pt(1, 1))
	if e.Intersects(r) || r.Intersects(e) {
		t.Error("empty rect should intersect nothing")
	}
	if got := e.Union(r); got != r {
		t.Errorf("union with empty should be identity, got %v", got)
	}
	if got := r.Union(e); got != r {
		t.Errorf("union with empty should be identity, got %v", got)
	}
	if !r.ContainsRect(e) {
		t.Error("every rect contains the empty rect")
	}
}

func TestRectMeasures(t *testing.T) {
	r := NewRect(Pt(1, 2), Pt(4, 8))
	if r.Width() != 3 || r.Height() != 6 {
		t.Errorf("extents = %v x %v", r.Width(), r.Height())
	}
	if r.Area() != 18 {
		t.Errorf("Area = %v", r.Area())
	}
	if r.Margin() != 9 {
		t.Errorf("Margin = %v", r.Margin())
	}
	if r.Center() != Pt(2.5, 5) {
		t.Errorf("Center = %v", r.Center())
	}
}

func TestRectContainsAndIntersects(t *testing.T) {
	r := NewRect(Pt(0, 0), Pt(10, 10))
	for _, p := range []Point{Pt(0, 0), Pt(10, 10), Pt(5, 5), Pt(0, 10)} {
		if !r.Contains(p) {
			t.Errorf("r should contain boundary/interior point %v", p)
		}
	}
	for _, p := range []Point{Pt(-0.001, 5), Pt(5, 10.001), Pt(11, 11)} {
		if r.Contains(p) {
			t.Errorf("r should not contain %v", p)
		}
	}
	cases := []struct {
		s    Rect
		want bool
	}{
		{NewRect(Pt(5, 5), Pt(15, 15)), true},
		{NewRect(Pt(10, 10), Pt(20, 20)), true}, // corner touch
		{NewRect(Pt(11, 11), Pt(20, 20)), false},
		{NewRect(Pt(2, 2), Pt(3, 3)), true}, // nested
		{NewRect(Pt(-5, 3), Pt(-1, 4)), false},
	}
	for _, tc := range cases {
		if got := r.Intersects(tc.s); got != tc.want {
			t.Errorf("Intersects(%v) = %v, want %v", tc.s, got, tc.want)
		}
		if got := tc.s.Intersects(r); got != tc.want {
			t.Errorf("Intersects not symmetric for %v", tc.s)
		}
	}
}

func TestRectIntersectUnion(t *testing.T) {
	a := NewRect(Pt(0, 0), Pt(10, 10))
	b := NewRect(Pt(5, 5), Pt(15, 20))
	got := a.Intersect(b)
	want := NewRect(Pt(5, 5), Pt(10, 10))
	if got != want {
		t.Errorf("Intersect = %v, want %v", got, want)
	}
	if ov := a.OverlapArea(b); ov != 25 {
		t.Errorf("OverlapArea = %v, want 25", ov)
	}
	u := a.Union(b)
	if u != NewRect(Pt(0, 0), Pt(15, 20)) {
		t.Errorf("Union = %v", u)
	}
	if a.Intersect(NewRect(Pt(20, 20), Pt(30, 30))).IsEmpty() != true {
		t.Error("disjoint intersect should be empty")
	}
}

func TestEnlargement(t *testing.T) {
	a := NewRect(Pt(0, 0), Pt(10, 10))
	if e := a.Enlargement(NewRect(Pt(2, 2), Pt(5, 5))); e != 0 {
		t.Errorf("contained rect should need 0 enlargement, got %v", e)
	}
	if e := a.Enlargement(NewRect(Pt(0, 0), Pt(20, 10))); e != 100 {
		t.Errorf("Enlargement = %v, want 100", e)
	}
}

func TestMinDist(t *testing.T) {
	r := NewRect(Pt(0, 0), Pt(10, 10))
	tests := []struct {
		p    Point
		want float64
	}{
		{Pt(5, 5), 0},            // inside
		{Pt(0, 0), 0},            // corner
		{Pt(-3, 5), 3},           // left
		{Pt(5, 14), 4},           // above
		{Pt(13, 14), 5},          // diagonal 3-4-5
		{Pt(-3, -4), 5},          // other diagonal
		{Pt(10, 10.5), 0.5},      // just above corner
		{Pt(10.0001, 5), 0.0001}, // just right
	}
	for _, tc := range tests {
		if got := r.MinDist(tc.p); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("MinDist(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestMaxDist(t *testing.T) {
	r := NewRect(Pt(0, 0), Pt(10, 10))
	tests := []struct {
		p    Point
		want float64
	}{
		{Pt(0, 0), math.Sqrt(200)}, // corner: farthest is opposite corner
		{Pt(5, 5), math.Sqrt(50)},  // center
		{Pt(-10, 5), math.Hypot(20, 5)},
		{Pt(20, 20), math.Hypot(20, 20)},
	}
	for _, tc := range tests {
		if got := r.MaxDist(tc.p); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("MaxDist(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestMinMaxDist(t *testing.T) {
	r := NewRect(Pt(0, 0), Pt(10, 10))
	// Query at the center: nearest face is 5 away; the guaranteed object on
	// that face may sit at the far end of the other axis: sqrt(25+25).
	if got, want := r.MinMaxDist(Pt(5, 5)), math.Sqrt(50); math.Abs(got-want) > 1e-12 {
		t.Errorf("center MinMaxDist = %v, want %v", got, want)
	}
	// Query far left: closer x face is x=0; object may be at y=10:
	// sqrt(100 + 100) via x; via y: closer y face 0 with far x face 10:
	// sqrt(400+100). min is via x.
	if got, want := r.MinMaxDist(Pt(-10, 0)), math.Hypot(10, 10); math.Abs(got-want) > 1e-12 {
		t.Errorf("left MinMaxDist = %v, want %v", got, want)
	}
}

// MINMAXDIST's defining guarantee: for any MBR tightly bounding a point set
// (every face touched), at least one point lies within MinMaxDist of any
// query. And MINDIST <= MINMAXDIST <= MAXDIST always.
func TestMinMaxDistGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 300; trial++ {
		// A point set whose MBR touches all faces by construction.
		n := 4 + rng.Intn(20)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Pt(rng.Float64()*100, rng.Float64()*100)
		}
		mbr := EmptyRect()
		for _, p := range pts {
			mbr = mbr.Union(RectFromPoint(p))
		}
		q := Pt(rng.Float64()*300-100, rng.Float64()*300-100)
		mmd := mbr.MinMaxDist(q)
		if mbr.MinDist(q) > mmd+1e-9 || mmd > mbr.MaxDist(q)+1e-9 {
			t.Fatalf("ordering violated: min %v mm %v max %v",
				mbr.MinDist(q), mmd, mbr.MaxDist(q))
		}
		nearest := math.Inf(1)
		for _, p := range pts {
			if d := q.Dist(p); d < nearest {
				nearest = d
			}
		}
		if nearest > mmd+1e-9 {
			t.Fatalf("guarantee violated: nearest object %v beyond MinMaxDist %v", nearest, mmd)
		}
	}
}

// MinDist and MaxDist must bracket the distance to every point inside the
// rectangle — the invariant the kNN pruning rules depend on.
func TestMinMaxDistBracketInterior(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		r := NewRect(
			Pt(rng.Float64()*100, rng.Float64()*100),
			Pt(rng.Float64()*100, rng.Float64()*100),
		)
		q := Pt(rng.Float64()*200-50, rng.Float64()*200-50)
		lo, hi := r.MinDist(q), r.MaxDist(q)
		if lo > hi+1e-9 {
			t.Fatalf("MinDist %v > MaxDist %v for %v, %v", lo, hi, r, q)
		}
		for j := 0; j < 30; j++ {
			p := Pt(
				r.Min.X+rng.Float64()*r.Width(),
				r.Min.Y+rng.Float64()*r.Height(),
			)
			d := q.Dist(p)
			if d < lo-1e-9 || d > hi+1e-9 {
				t.Fatalf("interior point %v at distance %v outside [%v, %v]", p, d, lo, hi)
			}
		}
	}
}

func TestUnionMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		a := NewRect(Pt(rng.Float64()*50, rng.Float64()*50), Pt(rng.Float64()*50, rng.Float64()*50))
		b := NewRect(Pt(rng.Float64()*50, rng.Float64()*50), Pt(rng.Float64()*50, rng.Float64()*50))
		u := a.Union(b)
		if !u.ContainsRect(a) || !u.ContainsRect(b) {
			t.Fatalf("union %v does not contain operands %v %v", u, a, b)
		}
		if u.Area()+1e-9 < math.Max(a.Area(), b.Area()) {
			t.Fatalf("union area shrank")
		}
	}
}

// OverlapArea and Union are on the R*-tree insertion hot path and written
// with the built-in min/max; they must stay bit-equal to the plain
// formulations — Intersect(...).Area(), and math.Min/math.Max per
// coordinate — or the tree the simulator and the daemon build would move.
func TestOverlapAreaAndUnionBitExact(t *testing.T) {
	unionRef := func(r, s Rect) Rect {
		if r.IsEmpty() {
			return s
		}
		if s.IsEmpty() {
			return r
		}
		return Rect{
			Min: Point{math.Min(r.Min.X, s.Min.X), math.Min(r.Min.Y, s.Min.Y)},
			Max: Point{math.Max(r.Max.X, s.Max.X), math.Max(r.Max.Y, s.Max.Y)},
		}
	}
	bits := func(r Rect) [4]uint64 {
		return [4]uint64{math.Float64bits(r.Min.X), math.Float64bits(r.Min.Y),
			math.Float64bits(r.Max.X), math.Float64bits(r.Max.Y)}
	}
	check := func(r, s Rect) {
		t.Helper()
		for _, p := range [][2]Rect{{r, s}, {s, r}} {
			got, want := p[0].OverlapArea(p[1]), p[0].Intersect(p[1]).Area()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("OverlapArea(%v, %v) = %v (%#x), Intersect.Area = %v (%#x)",
					p[0], p[1], got, math.Float64bits(got), want, math.Float64bits(want))
			}
			if g, w := p[0].Union(p[1]), unionRef(p[0], p[1]); bits(g) != bits(w) {
				t.Fatalf("Union(%v, %v) = %v, math.Min/Max give %v", p[0], p[1], g, w)
			}
		}
	}

	negZero := math.Copysign(0, -1)
	unit := Rect{Min: Pt(0, 0), Max: Pt(1, 1)}
	fixed := []Rect{
		unit,
		{Min: Pt(1, 0), Max: Pt(2, 1)},           // touching along an edge
		{Min: Pt(1, 1), Max: Pt(2, 2)},           // touching at a corner
		{Min: Pt(0.25, 0.25), Max: Pt(0.5, 0.5)}, // nested
		{Min: Pt(3, 3), Max: Pt(4, 4)},           // disjoint
		{Min: Pt(-1, 0.5), Max: Pt(5, 0.5)},      // degenerate: a segment crossing
		RectFromPoint(Pt(0.5, 0.5)),              // degenerate: an interior point
		RectFromPoint(Pt(1, 1)),                  // degenerate: a corner point
		RectFromPoint(Pt(9, 9)),                  // degenerate: an outside point
		EmptyRect(),
		{Min: Pt(negZero, negZero), Max: Pt(0, 0)},
		{Min: Pt(-1, -1), Max: Pt(negZero, negZero)},
		{Min: Pt(0, 0), Max: Pt(1e-300, 1e-300)}, // product underflows
		{Min: Pt(-1e150, -1e150), Max: Pt(1e150, 1e150)},
	}
	for _, r := range fixed {
		for _, s := range fixed {
			check(r, s)
		}
	}

	rng := rand.New(rand.NewSource(1))
	randRect := func() Rect {
		switch rng.Intn(4) {
		case 0: // a point
			return RectFromPoint(Pt(rng.Float64()*100, rng.Float64()*100))
		case 1: // snapped to a coarse lattice: shared and touching edges
			a := Pt(float64(rng.Intn(8)), float64(rng.Intn(8)))
			return NewRect(a, a.Add(Pt(float64(rng.Intn(4)), float64(rng.Intn(4)))))
		default:
			return NewRect(Pt(rng.Float64()*100, rng.Float64()*100), Pt(rng.Float64()*100, rng.Float64()*100))
		}
	}
	for i := 0; i < 20000; i++ {
		check(randRect(), randRect())
	}
}
