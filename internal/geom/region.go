package geom

import (
	"math"
	"sort"
)

// Region is the union of a set of discs. In the multi-peer verification step
// of the paper (kNN_multiple, §3.2.2) the certain region R_c is the union of
// every reachable peer's certain circle; a candidate point of interest n_i is
// a certain nearest neighbor of the query point Q exactly when the circle
// centered at Q through n_i is fully covered by R_c (Lemma 3.8).
type Region struct {
	circles    []Circle
	overlapBuf []Circle    // scratch, reused across CoversCircle calls
	arcBuf     []regionArc // scratch, reused across MaxCoveredRadius calls
}

// NewRegion returns the union of the given circles. Zero-radius circles are
// kept (they can still cover degenerate candidates).
func NewRegion(circles ...Circle) *Region {
	cs := make([]Circle, len(circles))
	copy(cs, circles)
	return &Region{circles: cs}
}

// Add extends the region with another disc.
func (r *Region) Add(c Circle) { r.circles = append(r.circles, c) }

// Reset clears the region's discs in place, retaining allocated capacity, so
// a scratch Region can be rebuilt across queries without heap churn.
func (r *Region) Reset() { r.circles = r.circles[:0] }

// Circles returns a copy of the discs whose union forms the region.
func (r *Region) Circles() []Circle {
	out := make([]Circle, len(r.circles))
	copy(out, r.circles)
	return out
}

// IsEmpty reports whether the region contains no disc with positive radius
// and no point circle.
func (r *Region) IsEmpty() bool { return len(r.circles) == 0 }

// Contains reports whether p lies in the union.
func (r *Region) Contains(p Point) bool {
	for _, c := range r.circles {
		if c.Contains(p) {
			return true
		}
	}
	return false
}

// Bounds returns the MBR of the union.
func (r *Region) Bounds() Rect {
	out := EmptyRect()
	for _, c := range r.circles {
		out = out.Union(c.Bounds())
	}
	return out
}

// CoversCircle reports whether the disc c is entirely contained in the
// region, using an exact arc-arrangement argument:
//
//  1. the boundary circle of c must be fully covered — decided by merging,
//     per region disc, the angular interval of c's boundary it covers; and
//  2. no "hole" of the union may open inside c — a bounded uncovered pocket
//     of a disc union has corners at intersection points of two disc
//     boundaries, so every such intersection point lying strictly inside c
//     must be strictly interior to some third disc.
//
// Both conditions together are necessary and sufficient; the epsilon
// handling errs toward "not covered", keeping Lemma 3.8 verification sound.
// The package's tests cross-validate this method against the paper's own
// polygonization + MapOverlay construction of §3.2.2, which agrees with it up
// to its (also conservative) approximation error.
func (r *Region) CoversCircle(c Circle) bool {
	if c.Radius <= Eps {
		return r.Contains(c.Center)
	}
	// Fast path: a single region disc covers the candidate outright.
	for _, rc := range r.circles {
		if rc.ContainsCircle(c) {
			return true
		}
	}
	// Quick reject: coverage requires the candidate's bounding box to fit
	// inside the region's bounding box.
	if !r.Bounds().ContainsRect(c.Bounds()) {
		return false
	}
	// Only region discs that intersect the candidate can contribute.
	overlapping := r.overlapBuf[:0]
	for _, rc := range r.circles {
		if rc.Radius > Eps && rc.Intersects(c) {
			overlapping = append(overlapping, rc)
		}
	}
	r.overlapBuf = overlapping
	if len(overlapping) == 0 {
		return false
	}

	// Condition 1: angular coverage of c's boundary.
	if !boundaryCovered(c, overlapping) {
		return false
	}
	// Condition 2: every circle-circle intersection vertex strictly inside
	// the candidate must be strictly interior to a third disc.
	for i := 0; i < len(overlapping); i++ {
		for j := i + 1; j < len(overlapping); j++ {
			p1, p2, n := circleIntersections(overlapping[i], overlapping[j])
			pts := [2]Point{p1, p2}
			for _, p := range pts[:n] {
				if c.Center.Dist(p) >= c.Radius-Eps {
					continue // on or outside the candidate boundary
				}
				coveredByThird := false
				for k := range overlapping {
					if k == i || k == j {
						continue
					}
					rc := overlapping[k]
					if rc.Center.Dist(p) < rc.Radius-Eps {
						coveredByThird = true
						break
					}
				}
				if !coveredByThird {
					return false
				}
			}
		}
	}
	return true
}

// boundaryCovered reports whether the boundary circle of c is fully covered
// by the union of the given discs, by exact angular-interval merging.
func boundaryCovered(c Circle, discs []Circle) bool {
	type arc struct{ lo, hi float64 }
	var arcs []arc
	add := func(lo, hi float64) { arcs = append(arcs, arc{lo, hi}) }
	for _, rc := range discs {
		d := c.Center.Dist(rc.Center)
		if d+c.Radius <= rc.Radius+Eps {
			return true // this disc alone covers the whole boundary
		}
		if d >= rc.Radius+c.Radius || rc.Radius+d <= c.Radius {
			continue // boundary circles don't interact
		}
		// Law of cosines: half-angle of the covered arc around the
		// direction from c's center to rc's center.
		cosPhi := (d*d + c.Radius*c.Radius - rc.Radius*rc.Radius) / (2 * d * c.Radius)
		if cosPhi > 1 {
			cosPhi = 1
		} else if cosPhi < -1 {
			cosPhi = -1
		}
		phi := math.Acos(cosPhi)
		theta := math.Atan2(rc.Center.Y-c.Center.Y, rc.Center.X-c.Center.X)
		lo, hi := theta-phi, theta+phi
		// Normalize into [0, 2π) and split wrap-around arcs.
		lo = math.Mod(lo+4*math.Pi, 2*math.Pi)
		hi = math.Mod(hi+4*math.Pi, 2*math.Pi)
		if lo <= hi {
			add(lo, hi)
		} else {
			add(lo, 2*math.Pi)
			add(0, hi)
		}
	}
	if len(arcs) == 0 {
		return false
	}
	sort.Slice(arcs, func(i, j int) bool { return arcs[i].lo < arcs[j].lo })
	const angEps = 1e-12
	if arcs[0].lo > angEps {
		return false
	}
	reach := arcs[0].hi
	for _, a := range arcs[1:] {
		if a.lo > reach+angEps {
			return false
		}
		if a.hi > reach {
			reach = a.hi
		}
	}
	return reach >= 2*math.Pi-angEps
}

// circleIntersections returns the intersection points of two circle
// boundaries and how many exist (0, 1 or 2).
func circleIntersections(a, b Circle) (Point, Point, int) {
	d := a.Center.Dist(b.Center)
	if d <= Eps || d > a.Radius+b.Radius || d < math.Abs(a.Radius-b.Radius) {
		return Point{}, Point{}, 0
	}
	// Distance from a's center to the chord midpoint.
	x := (d*d + a.Radius*a.Radius - b.Radius*b.Radius) / (2 * d)
	h2 := a.Radius*a.Radius - x*x
	dir := b.Center.Sub(a.Center).Scale(1 / d)
	mid := a.Center.Add(dir.Scale(x))
	if h2 <= Eps*Eps {
		return mid, Point{}, 1
	}
	h := math.Sqrt(h2)
	perp := Point{-dir.Y, dir.X}
	return mid.Add(perp.Scale(h)), mid.Sub(perp.Scale(h)), 2
}

// regionArc is an angular interval [lo, hi] ⊆ [0, 2π] of one disc's boundary
// covered by another disc; scratch storage for MaxCoveredRadius.
type regionArc struct{ lo, hi float64 }

// MaxCoveredRadius returns the largest radius rad (capped at hi) such that the
// disc centered at p with radius rad is covered by the region — the monotone
// coverage threshold ρ_max(p). Coverage at a fixed center is monotone in the
// radius, so CoversCircle(NewCircle(p, rad)) holds exactly for rad ≤ ρ_max (up
// to the shared Eps conventions), which lets a verifier replace per-candidate
// coverage tests with one threshold computation and a distance comparison.
// It returns 0 when p itself is uncovered, or covered only by zero-radius
// point circles (which contribute no interior).
//
// The threshold is computed exactly in one pass over the disc arrangement:
// ρ_max is the distance from p to the nearest *exposed* boundary point of the
// union — a point on some disc's boundary circle that is not strictly interior
// to any other disc. For each disc, the angular intervals of its boundary
// covered by the other discs are merged (the same law-of-cosines arcs
// CoversCircle uses); the uncovered gaps yield the candidate distances: the
// radial projection of p when its direction falls inside a gap, or the gap
// endpoints otherwise. Gap endpoints are exactly the arrangement's
// intersection vertices, so interior holes of the union need no separate
// treatment — their corners are gap endpoints too.
func (r *Region) MaxCoveredRadius(p Point, hi float64) float64 {
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
		if dist, exposed := r.nearestExposedOnCircle(p, i, d); exposed && dist < best {
			best = dist
		}
	}
	return best
}

// nearestExposedOnCircle returns the minimum distance from p to an exposed
// point of circle i's boundary; d is the precomputed distance from p to that
// circle's center. exposed is false when the other discs cover the boundary
// entirely.
func (r *Region) nearestExposedOnCircle(p Point, i int, d float64) (float64, bool) {
	ci := r.circles[i]
	arcs := r.arcBuf[:0]
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
			r.arcBuf = arcs
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
	r.arcBuf = arcs
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
