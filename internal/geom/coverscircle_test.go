package geom

import (
	"math"
	"sort"
)

// The per-circle form of Lemma 3.8's coverage test — the arc arrangement that
// decided kNN_multiple candidate by candidate and range queries outright until
// both moved to the one threshold Region.MaxCoveredRadius computes. It survives
// here as the referee of that threshold (TestMaxCoveredRadiusAgreesWithCoversCircle*,
// the edge-case tables in region_test.go); internal/core and internal/client
// carry their own copies for the same purpose, because a _test.go file cannot
// be imported.

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
	var overlapping []Circle
	for _, rc := range r.circles {
		if rc.Radius > Eps && rc.Intersects(c) {
			overlapping = append(overlapping, rc)
		}
	}
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
