package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestRegionContains(t *testing.T) {
	r := NewRegion(NewCircle(Pt(0, 0), 5), NewCircle(Pt(8, 0), 5))
	for _, p := range []Point{Pt(0, 0), Pt(4, 0), Pt(12, 0), Pt(8, 4)} {
		if !r.Contains(p) {
			t.Errorf("region should contain %v", p)
		}
	}
	for _, p := range []Point{Pt(4, 5), Pt(-6, 0), Pt(14, 0)} {
		if r.Contains(p) {
			t.Errorf("region should not contain %v", p)
		}
	}
	if NewRegion().Contains(Pt(0, 0)) {
		t.Error("empty region contains nothing")
	}
}

func TestRegionBounds(t *testing.T) {
	r := NewRegion(NewCircle(Pt(0, 0), 2), NewCircle(Pt(10, 10), 1))
	want := NewRect(Pt(-2, -2), Pt(11, 11))
	if got := r.Bounds(); got != want {
		t.Errorf("Bounds = %v, want %v", got, want)
	}
	if !NewRegion().Bounds().IsEmpty() {
		t.Error("empty region should have empty bounds")
	}
}

func TestCoversCircleSingleDisc(t *testing.T) {
	r := NewRegion(NewCircle(Pt(0, 0), 10))
	tests := []struct {
		name string
		c    Circle
		want bool
	}{
		{"well inside", NewCircle(Pt(1, 1), 2), true},
		{"centered same size", NewCircle(Pt(0, 0), 10), true},
		{"sticking out", NewCircle(Pt(8, 0), 4), false},
		{"disjoint", NewCircle(Pt(30, 0), 2), false},
		{"zero radius inside", NewCircle(Pt(3, 3), 0), true},
		{"zero radius outside", NewCircle(Pt(30, 3), 0), false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := r.CoversCircle(tc.c); got != tc.want {
				t.Errorf("CoversCircle(%v) = %v, want %v", tc.c, got, tc.want)
			}
		})
	}
}

// Figure 7 of the paper: a candidate circle covered by neither peer circle
// alone but covered by their union must verify as certain only with the
// merged region.
func TestCoversCircleNeedsUnionFig7(t *testing.T) {
	p3 := NewCircle(Pt(-4, 0), 6.5)
	p4 := NewCircle(Pt(4, 0), 6.5)
	// Query circle centered between them, radius small enough to fit in the
	// lens-shaped union but not in either circle alone... it must extend
	// beyond both individual circles' coverage of the query point.
	q := NewCircle(Pt(0, 0), 3.2)
	if NewRegion(p3).CoversCircle(q) {
		t.Fatal("peer 3 alone should not cover the candidate")
	}
	if NewRegion(p4).CoversCircle(q) {
		t.Fatal("peer 4 alone should not cover the candidate")
	}
	if !NewRegion(p3, p4).CoversCircle(q) {
		t.Fatal("merged region should cover the candidate (Lemma 3.8)")
	}
}

// Soundness: whenever CoversCircle says true, Monte-Carlo sampling of the
// candidate disc must find no uncovered point. This is the property that
// keeps multi-peer verification sound (no false "certain" answers).
func TestCoversCircleSoundMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	covered, uncovered := 0, 0
	for i := 0; i < 400; i++ {
		var circles []Circle
		n := 1 + rng.Intn(5)
		for j := 0; j < n; j++ {
			circles = append(circles, NewCircle(
				Pt(rng.Float64()*20-10, rng.Float64()*20-10),
				rng.Float64()*8+0.5,
			))
		}
		r := NewRegion(circles...)
		c := NewCircle(Pt(rng.Float64()*20-10, rng.Float64()*20-10), rng.Float64()*6+0.1)
		if !r.CoversCircle(c) {
			uncovered++
			continue
		}
		covered++
		for s := 0; s < 3000; s++ {
			// Uniform sample in the disc.
			th := rng.Float64() * 2 * math.Pi
			rad := c.Radius * math.Sqrt(rng.Float64())
			p := Pt(c.Center.X+rad*math.Cos(th), c.Center.Y+rad*math.Sin(th))
			if !r.Contains(p) {
				t.Fatalf("CoversCircle=true but sample %v uncovered (candidate %v)", p, c)
			}
		}
	}
	if covered == 0 {
		t.Error("test generated no covered cases; tighten generator")
	}
	if uncovered == 0 {
		t.Error("test generated no uncovered cases; tighten generator")
	}
}

// Approximate completeness: a disc with comfortable slack inside the union
// must be detected as covered at the default fidelity.
func TestCoversCircleCompleteWithSlack(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for i := 0; i < 200; i++ {
		center := Pt(rng.Float64()*10, rng.Float64()*10)
		radius := rng.Float64()*5 + 1
		// Cover the disc with three overlapping larger discs around it.
		r := NewRegion(
			NewCircle(center.Add(Pt(radius*0.3, 0)), radius*1.6),
			NewCircle(center.Add(Pt(-radius*0.3, 0.2*radius)), radius*1.6),
			NewCircle(center.Add(Pt(0, -radius*0.3)), radius*1.6),
		)
		if !r.CoversCircle(NewCircle(center, radius)) {
			t.Fatalf("disc with 30%% slack not detected as covered (i=%d)", i)
		}
	}
}

func TestCoversCircleChainOfDiscs(t *testing.T) {
	// A long thin candidate region covered by a chain of overlapping discs.
	var circles []Circle
	for x := 0.0; x <= 20; x += 2 {
		circles = append(circles, NewCircle(Pt(x, 0), 3))
	}
	r := NewRegion(circles...)
	if !r.CoversCircle(NewCircle(Pt(10, 0), 2.5)) {
		t.Error("chain union should cover center disc")
	}
	if r.CoversCircle(NewCircle(Pt(10, 0), 3.5)) {
		t.Error("disc taller than the chain must not verify")
	}
}

// The polygonized (paper-faithful) method is conservative with respect to
// the exact arc method: whenever polygonization certifies coverage, the
// exact test must agree. And whenever the exact test denies coverage with
// slack, polygonization must deny too. Checked at a coarse and at the paper's
// default-grade fidelity.
func TestExactVsPolygonizedConsistency(t *testing.T) {
	for _, vertices := range []int{8, 32} {
		testExactVsPolygonized(t, vertices)
	}
}

func testExactVsPolygonized(t *testing.T, vertices int) {
	rng := rand.New(rand.NewSource(303))
	agreePos, agreeNeg := 0, 0
	for i := 0; i < 800; i++ {
		var circles []Circle
		n := 1 + rng.Intn(5)
		for j := 0; j < n; j++ {
			circles = append(circles, NewCircle(
				Pt(rng.Float64()*20-10, rng.Float64()*20-10),
				rng.Float64()*8+0.5,
			))
		}
		r := NewRegion(circles...)
		c := NewCircle(Pt(rng.Float64()*20-10, rng.Float64()*20-10), rng.Float64()*6+0.1)
		exact := r.CoversCircle(c)
		poly := r.CoversCirclePolygonized(c, vertices)
		if poly && !exact {
			t.Fatalf("%d-gon polygonized=true but exact=false for %v over %v", vertices, c, circles)
		}
		if exact == poly {
			if exact {
				agreePos++
			} else {
				agreeNeg++
			}
		}
	}
	if agreePos == 0 || agreeNeg == 0 {
		t.Errorf("%d-gon: methods never agreed on both verdicts (pos=%d neg=%d)", vertices, agreePos, agreeNeg)
	}
}

// The exact method must certify tight fits the conservative polygonization
// rejects: a disc inscribed with sub-percent slack in a two-disc union.
func TestExactTighterThanPolygonized(t *testing.T) {
	r := NewRegion(NewCircle(Pt(-0.5, 0), 10), NewCircle(Pt(0.5, 0), 10))
	// Max covered radius at origin: boundary point (0, y): dist to (±0.5,0)
	// is sqrt(0.25+y^2) <= 10 -> y <= sqrt(99.75) ~ 9.9875.
	tight := NewCircle(Pt(0, 0), 9.98)
	if !r.CoversCircle(tight) {
		t.Error("exact method should certify a fit with 0.07% slack")
	}
	if r.CoversCirclePolygonized(tight, 32) {
		t.Error("32-gon polygonization should be too conservative for a 0.07% slack")
	}
	if r.CoversCircle(NewCircle(Pt(0, 0), 9.99)) {
		t.Error("exact method certified an uncovered disc")
	}
}

func TestMaxCoveredRadius(t *testing.T) {
	r := NewRegion(NewCircle(Pt(0, 0), 10))
	got := r.MaxCoveredRadius(Pt(4, 0), 20)
	if math.Abs(got-6) > 0.1 {
		t.Errorf("MaxCoveredRadius = %v, want about 6", got)
	}
	if r.MaxCoveredRadius(Pt(30, 0), 5) != 0 {
		t.Error("uncovered center should yield 0")
	}
	// hi smaller than the true maximum: return hi.
	if got := r.MaxCoveredRadius(Pt(0, 0), 4); got != 4 {
		t.Errorf("clamped MaxCoveredRadius = %v, want 4", got)
	}
}

// Polygonization fidelity trades conservatism for cost: a disc with more than
// one unit of slack in a two-disc union — too large for either disc alone, so
// the single-disc fast path cannot answer — is rejected at 4 vertices and
// certified at 128.
func TestPolygonizedFidelity(t *testing.T) {
	r := NewRegion(NewCircle(Pt(-3, 0), 10), NewCircle(Pt(3, 0), 10))
	// Covered up to sqrt(100-9) ~ 9.54 at the origin; one disc holds only 7.
	c := NewCircle(Pt(0, 0), 8)
	if !r.CoversCircle(c) {
		t.Fatal("exact method should certify the disc")
	}
	if r.CoversCirclePolygonized(c, 4) {
		t.Error("4-gon fidelity should be too coarse to certify a tight fit")
	}
	if !r.CoversCirclePolygonized(c, 128) {
		t.Error("128-gon fidelity should certify a disc with >1 unit slack")
	}
}

func TestRegionAddAndCircles(t *testing.T) {
	r := NewRegion(NewCircle(Pt(0, 0), 1))
	r.Add(NewCircle(Pt(5, 5), 2))
	cs := r.Circles()
	if len(cs) != 2 {
		t.Fatalf("Circles len = %d", len(cs))
	}
	cs[0] = NewCircle(Pt(9, 9), 9)
	if r.Circles()[0].Center.Eq(Pt(9, 9)) {
		t.Error("Circles must return a defensive copy")
	}
	if r.IsEmpty() {
		t.Error("region with circles should not be empty")
	}
	if !NewRegion().IsEmpty() {
		t.Error("NewRegion() should be empty")
	}
}

// BenchmarkAblationRegionExact and ...RegionPolygonized compare the two
// Lemma 3.8 implementations on identical workloads: same verdicts (up to the
// polygonization's conservatism), very different cost.
func BenchmarkAblationRegionExact(b *testing.B) {
	benchRegionMethod(b, func(r *Region, c Circle) bool { return r.CoversCircle(c) })
}

// BenchmarkAblationRegionPolygonized is the paper-faithful counterpart of
// BenchmarkAblationRegionExact, at 32 vertices per polygonized circle.
func BenchmarkAblationRegionPolygonized(b *testing.B) {
	benchRegionMethod(b, func(r *Region, c Circle) bool { return r.CoversCirclePolygonized(c, 32) })
}

func benchRegionMethod(b *testing.B, covers func(*Region, Circle) bool) {
	rng := rand.New(rand.NewSource(3))
	type tc struct {
		region *Region
		cand   Circle
	}
	cases := make([]tc, 256)
	for i := range cases {
		var circles []Circle
		for j := 0; j < 2+rng.Intn(6); j++ {
			circles = append(circles, NewCircle(
				Pt(rng.Float64()*100, rng.Float64()*100), 20+rng.Float64()*30))
		}
		cases[i] = tc{
			region: NewRegion(circles...),
			cand:   NewCircle(Pt(rng.Float64()*100, rng.Float64()*100), 5+rng.Float64()*30),
		}
	}
	covered := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := cases[i%len(cases)]
		if covers(c.region, c.cand) {
			covered++
		}
	}
	b.ReportMetric(100*float64(covered)/float64(b.N), "covered%")
}
