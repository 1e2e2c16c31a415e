package geom

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The arc-arrangement form of MaxCoveredRadius, as it ran in production until
// the exposed-point enumeration replaced it. It survives here only as the
// oracle the new kernel is cross-checked against (TestMaxCoveredRadiusMatchesArcOracle
// and its fuzz target, BenchmarkMaxCoveredRadius): an independent derivation
// of the same threshold — per disc, merge the angular intervals of its
// boundary the other discs cover and measure the distance from p to the
// nearest uncovered gap — sharing no code with the production kernel beyond
// Circle and Point.

// regionArc is an angular interval [lo, hi] ⊆ [0, 2π] of one disc's boundary
// covered by another disc.
type regionArc struct{ lo, hi float64 }

// maxCoveredRadiusArc is ρ_max(p) capped at hi over the discs of r. For each
// disc, the angular intervals of its boundary covered by the other discs are
// merged (the same law-of-cosines arcs CoversCircle uses); the uncovered gaps
// yield the candidate distances: the radial projection of p when its
// direction falls inside a gap, or the gap endpoints otherwise. arcs is
// scratch the caller may reuse across calls.
func maxCoveredRadiusArc(r *Region, p Point, hi float64, arcs *[]regionArc) float64 {
	if hi <= 0 {
		return 0
	}
	coveredPositive := false
	for _, c := range r.circles {
		if c.Radius > Eps && c.Contains(p) {
			coveredPositive = true
			break
		}
	}
	if !coveredPositive {
		return 0
	}
	best := hi
	for i := range r.circles {
		ci := r.circles[i]
		if ci.Radius <= Eps {
			continue // point circles have no boundary arcs and no interior
		}
		d := p.Dist(ci.Center)
		if near := math.Abs(d - ci.Radius); near >= best {
			continue // every point of this boundary is at least near away
		}
		if dist, exposed := nearestExposedOnCircleArc(r, p, i, d, arcs); exposed && dist < best {
			best = dist
		}
	}
	return best
}

// nearestExposedOnCircleArc returns the minimum distance from p to an exposed
// point of circle i's boundary; d is the precomputed distance from p to that
// circle's center. exposed is false when the other discs cover the boundary
// entirely.
func nearestExposedOnCircleArc(r *Region, p Point, i int, d float64, buf *[]regionArc) (float64, bool) {
	ci := r.circles[i]
	arcs := (*buf)[:0]
	for j := range r.circles {
		if j == i {
			continue
		}
		cj := r.circles[j]
		if cj.Radius <= Eps {
			continue
		}
		D := ci.Center.Dist(cj.Center)
		if D+ci.Radius <= cj.Radius+Eps {
			// cj covers this whole boundary. Mutually-covering discs
			// (identical up to Eps) tie-break by index so exactly one of them
			// keeps the shared boundary — otherwise duplicates would erase
			// each other and the boundary would vanish from the arrangement.
			if D+cj.Radius <= ci.Radius+Eps && j > i {
				continue
			}
			*buf = arcs
			return 0, false
		}
		if D >= cj.Radius+ci.Radius || cj.Radius+D <= ci.Radius {
			continue // boundary circles don't interact
		}
		cosPhi := (D*D + ci.Radius*ci.Radius - cj.Radius*cj.Radius) / (2 * D * ci.Radius)
		if cosPhi > 1 {
			cosPhi = 1
		} else if cosPhi < -1 {
			cosPhi = -1
		}
		phi := math.Acos(cosPhi)
		theta := math.Atan2(cj.Center.Y-ci.Center.Y, cj.Center.X-ci.Center.X)
		lo, hiAng := theta-phi, theta+phi
		// Normalize into [0, 2π) and split wrap-around arcs.
		lo = math.Mod(lo+4*math.Pi, 2*math.Pi)
		hiAng = math.Mod(hiAng+4*math.Pi, 2*math.Pi)
		if lo <= hiAng {
			arcs = append(arcs, regionArc{lo, hiAng})
		} else {
			arcs = append(arcs, regionArc{lo, 2 * math.Pi}, regionArc{0, hiAng})
		}
	}
	*buf = arcs
	// Angle of p as seen from the circle's center (arbitrary when p is at the
	// center, where the distance below is R for every gap angle anyway).
	thetaP := math.Atan2(p.Y-ci.Center.Y, p.X-ci.Center.X)
	if thetaP < 0 {
		thetaP += 2 * math.Pi
	}
	if len(arcs) == 0 {
		return math.Abs(d - ci.Radius), true // whole boundary exposed
	}
	// Insertion sort: arc counts are small (≤ 2·discs) and sorting in place
	// keeps the hot path allocation-free.
	for k := 1; k < len(arcs); k++ {
		a := arcs[k]
		m := k - 1
		for m >= 0 && arcs[m].lo > a.lo {
			arcs[m+1] = arcs[m]
			m--
		}
		arcs[m+1] = a
	}
	const angEps = 1e-12
	minDist := math.Inf(1)
	gap := func(gLo, gHi float64) {
		if gHi-gLo <= angEps {
			return
		}
		var ang float64
		if thetaP >= gLo && thetaP <= gHi {
			ang = 0
		} else {
			ang = math.Min(circAngleDiff(thetaP, gLo), circAngleDiff(thetaP, gHi))
		}
		// Law of cosines: distance from p to the boundary point at angular
		// offset ang from p's direction. Distance grows with the circular
		// offset, so the nearest gap point is p's radial projection when it
		// falls inside the gap and the circularly nearest endpoint otherwise.
		v := d*d + ci.Radius*ci.Radius - 2*d*ci.Radius*math.Cos(ang)
		if v < 0 {
			v = 0
		}
		if dist := math.Sqrt(v); dist < minDist {
			minDist = dist
		}
	}
	if arcs[0].lo > angEps {
		gap(0, arcs[0].lo)
	}
	reach := arcs[0].hi
	for _, a := range arcs[1:] {
		if a.lo > reach+angEps {
			gap(reach, a.lo)
		}
		if a.hi > reach {
			reach = a.hi
		}
	}
	if reach < 2*math.Pi-angEps {
		gap(reach, 2*math.Pi)
	}
	if math.IsInf(minDist, 1) {
		return 0, false
	}
	return minDist, true
}

// circAngleDiff returns the circular distance between two angles in [0, 2π).
func circAngleDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if d > math.Pi {
		d = 2*math.Pi - d
	}
	return d
}

// oracleCase draws one region of 1–33 discs and a center/cap to measure from,
// salted with the arrangements an angle-free kernel could get wrong: exact
// duplicates, internal and external tangency, nested discs, rings that leave
// an interior hole, zero-radius point circles, p at a disc center, p on a
// boundary and p outside everything.
func oracleCase(rng *rand.Rand) (*Region, Point, float64) {
	n := 1 + rng.Intn(8)
	if rng.Intn(8) == 0 {
		n = 1 + rng.Intn(33)
	}
	spread := 2 + rng.Float64()*18
	circles := make([]Circle, 0, n)
	for len(circles) < n {
		base := NewCircle(
			Pt((rng.Float64()*2-1)*spread, (rng.Float64()*2-1)*spread),
			0.2+rng.Float64()*8)
		if len(circles) == 0 {
			circles = append(circles, base)
			continue
		}
		from := circles[rng.Intn(len(circles))]
		dir := unitAt(rng.Float64() * 2 * math.Pi)
		switch rng.Intn(12) {
		case 0: // exact duplicate
			circles = append(circles, from)
		case 1: // internally tangent, inside from
			rad := from.Radius * (0.1 + 0.8*rng.Float64())
			circles = append(circles, NewCircle(from.Center.Add(dir.Scale(from.Radius-rad)), rad))
		case 2: // externally tangent
			rad := 0.2 + rng.Float64()*6
			circles = append(circles, NewCircle(from.Center.Add(dir.Scale(from.Radius+rad)), rad))
		case 3: // strictly nested
			rad := from.Radius * (0.1 + 0.4*rng.Float64())
			circles = append(circles, NewCircle(from.Center.Add(dir.Scale(0.4*from.Radius*rng.Float64())), rad))
		case 4: // concentric, different radius
			circles = append(circles, NewCircle(from.Center, from.Radius*(0.5+rng.Float64())))
		case 5: // a ring around from's center that may leave a hole in the middle
			m := 3 + rng.Intn(6)
			ringR := 1 + rng.Float64()*6
			rad := ringR * (math.Sin(math.Pi/float64(m)) + 0.05 + 0.5*rng.Float64())
			phase := rng.Float64() * 2 * math.Pi
			for j := 0; j < m && len(circles) < n; j++ {
				u := unitAt(phase + 2*math.Pi*float64(j)/float64(m))
				circles = append(circles, NewCircle(from.Center.Add(u.Scale(ringR)), rad))
			}
		case 6: // point circle
			circles = append(circles, NewCircle(base.Center, 0))
		default:
			circles = append(circles, base)
		}
	}
	at := circles[rng.Intn(len(circles))]
	var p Point
	switch rng.Intn(10) {
	case 0:
		p = at.Center
	case 1: // on the boundary
		p = at.Center.Add(unitAt(rng.Float64() * 2 * math.Pi).Scale(at.Radius))
	case 2: // anywhere, often uncovered
		p = Pt((rng.Float64()*2-1)*1.5*spread, (rng.Float64()*2-1)*1.5*spread)
	default: // inside a disc
		p = at.Center.Add(unitAt(rng.Float64() * 2 * math.Pi).Scale(at.Radius * math.Sqrt(rng.Float64())))
	}
	hi := 0.5 + rng.Float64()*12
	if rng.Intn(3) == 0 {
		hi = 1e6
	}
	return NewRegion(circles...), p, hi
}

// checkMatchesArcOracle holds the production kernel to the arc arrangement:
// the same threshold within 1e-6 (relative to its size). It returns the
// kernel's value.
func checkMatchesArcOracle(t *testing.T, r *Region, p Point, hi float64, arcs *[]regionArc) float64 {
	t.Helper()
	got := r.MaxCoveredRadius(p, hi)
	want := maxCoveredRadiusArc(r, p, hi, arcs)
	if math.Abs(got-want) > 1e-6*(1+want) {
		t.Fatalf("MaxCoveredRadius(%v, %v) = %.12g, arc oracle %.12g; circles %v", p, hi, got, want, r.Circles())
	}
	return got
}

func TestMaxCoveredRadiusMatchesArcOracle(t *testing.T) {
	trials := 200_000
	if testing.Short() {
		trials = 20_000
	}
	rng := rand.New(rand.NewSource(2301))
	var arcs []regionArc
	sizes := map[int]int{}
	zero, capped := 0, 0
	for i := 0; i < trials; i++ {
		r, p, hi := oracleCase(rng)
		sizes[len(r.circles)]++
		switch checkMatchesArcOracle(t, r, p, hi, &arcs) {
		case 0:
			zero++
		case hi:
			capped++
		}
	}
	if sizes[1] == 0 || sizes[33] == 0 {
		t.Errorf("generator never drew 1 or 33 discs: %v", sizes)
	}
	if zero < trials/50 || capped < trials/50 || zero+capped > trials/2 {
		t.Errorf("%d uncovered and %d capped of %d trials; fixture too weak", zero, capped, trials)
	}
}

func FuzzMaxCoveredRadiusMatchesArcOracle(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, 2301, 987654321} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		var arcs []regionArc
		for i := 0; i < 32; i++ {
			r, p, hi := oracleCase(rng)
			checkMatchesArcOracle(t, r, p, hi, &arcs)
		}
	})
}

// The zero-allocation promise of the kernel, once its scratch has grown.
func TestMaxCoveredRadiusAllocs(t *testing.T) {
	cases := relayRegions(rand.New(rand.NewSource(5)), 8)
	for _, c := range cases {
		c.region.MaxCoveredRadius(c.p, c.hi)
	}
	i := 0
	if n := testing.AllocsPerRun(100, func() {
		c := cases[i%len(cases)]
		c.region.MaxCoveredRadius(c.p, c.hi)
		i++
	}); n != 0 {
		t.Errorf("MaxCoveredRadius allocates %v times per call, want 0", n)
	}
}

type radiusCase struct {
	region *Region
	p      Point
	hi     float64
}

// farthest is the cap production passes: no received POI lies beyond the far
// side of the farthest disc.
func farthest(p Point, circles []Circle) float64 {
	hi := 0.0
	for _, c := range circles {
		hi = math.Max(hi, p.Dist(c.Center)+c.Radius)
	}
	return hi
}

// queryRegions are certain regions as the sim-query workload merges them:
// eight shares cached within a few hundred metres of the querying host, each
// holding 12–20 neighbours at Los Angeles density — eight nearly concentric
// discs of 1.2–1.8 km. Neighbouring hosts see the same POI density, so the
// radii of one region differ by less than the centers do and nearly every
// pair of boundaries crosses (14 of 15.4 pairs per call on the workload
// itself); with unrelated radii most discs would nest and the kernel would
// have little to enumerate.
func queryRegions(rng *rand.Rand, n int) []radiusCase {
	cases := make([]radiusCase, n)
	for i := range cases {
		p := Pt(24000+rng.Float64()*1000, 24000+rng.Float64()*1000)
		circles := make([]Circle, 8)
		base := 1200 + 500*rng.Float64()
		for j := range circles {
			at := p.Add(unitAt(rng.Float64() * 2 * math.Pi).Scale(300 * math.Sqrt(rng.Float64())))
			circles[j] = NewCircle(at, base+100*rng.Float64())
		}
		cases[i] = radiusCase{NewRegion(circles...), p, farthest(p, circles)}
	}
	return cases
}

// relayRegions are certain regions as the serve-relay workload merges them:
// 33 discs of 170–230 m (16 neighbours among 50,000 POIs on 20 × 20 km)
// spread sunflower-fashion over a 350 m disc, measured from a point of the
// 300 m core the driver walks in.
func relayRegions(rng *rand.Rand, n int) []radiusCase {
	const golden = 2.39996322972865332 // pi * (3 - sqrt 5)
	cases := make([]radiusCase, n)
	for i := range cases {
		centre := Pt(2000+rng.Float64()*16000, 2000+rng.Float64()*16000)
		phase := rng.Float64() * 2 * math.Pi
		circles := make([]Circle, 33)
		for j := range circles {
			at := centre.Add(unitAt(phase + float64(j)*golden).Scale(350 * math.Sqrt((float64(j)+0.5)/33)))
			circles[j] = NewCircle(at, 170+60*rng.Float64())
		}
		p := centre.Add(unitAt(rng.Float64() * 2 * math.Pi).Scale(300 * math.Sqrt(rng.Float64())))
		cases[i] = radiusCase{NewRegion(circles...), p, farthest(p, circles)}
	}
	return cases
}

var radiusSink float64

// BenchmarkMaxCoveredRadius measures the production kernel ("vertex")
// against the arc arrangement it replaced ("arc") on the two region shapes
// the benchmark workloads produce. One op is a sweep over 64 regions, after
// a sweep that grows the scratch, so a -benchtime 1x sample is long enough
// to time and allocation-free; CI gates the ratio per shape.
func BenchmarkMaxCoveredRadius(b *testing.B) {
	shapes := []struct {
		discs int
		cases []radiusCase
	}{
		{8, queryRegions(rand.New(rand.NewSource(8)), 64)},
		{33, relayRegions(rand.New(rand.NewSource(33)), 64)},
	}
	var arcs []regionArc
	kernels := []struct {
		name string
		run  func(radiusCase) float64
	}{
		{"arc", func(c radiusCase) float64 { return maxCoveredRadiusArc(c.region, c.p, c.hi, &arcs) }},
		{"vertex", func(c radiusCase) float64 { return c.region.MaxCoveredRadius(c.p, c.hi) }},
	}
	for _, k := range kernels {
		for _, s := range shapes {
			b.Run(fmt.Sprintf("%s/discs=%d", k.name, s.discs), func(b *testing.B) {
				sweep := func() {
					for _, c := range s.cases {
						radiusSink += k.run(c)
					}
				}
				sweep()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sweep()
				}
			})
		}
	}
}

// unitAt is the unit vector at angle theta.
func unitAt(theta float64) Point { return Pt(math.Cos(theta), math.Sin(theta)) }
