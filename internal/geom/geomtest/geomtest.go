// Package geomtest holds the Lemma 3.8 referee that tests outside
// internal/geom decide coverage with (internal/core's paper-sequence oracle,
// internal/client's per-POI certification property): one importable copy, in
// the style of testing/iotest. Only _test.go files import it (the CI lint job
// greps for any other importer); production decides Lemma 3.8 with
// geom.Region.MaxCoveredRadius alone.
package geomtest

import (
	"math"
	"sort"

	"repro/internal/geom"
)

// CoversCircle reports whether the disc c lies inside the region — the exact
// arc-arrangement test geom.Region.CoversCircle was (the method itself lives
// on in internal/geom/coverscircle_test.go as MaxCoveredRadius's in-package
// referee, which cannot import this package): c's boundary circle is covered,
// by merging the angular interval each region disc covers, and no hole opens
// inside c, every intersection vertex of two region discs strictly inside c
// being strictly inside a third. Epsilons err toward "not covered".
func CoversCircle(r *geom.Region, c geom.Circle) bool {
	if c.Radius <= geom.Eps {
		return r.Contains(c.Center)
	}
	var discs []geom.Circle
	for _, rc := range r.Circles() {
		if rc.ContainsCircle(c) {
			return true
		}
		if rc.Radius > geom.Eps && rc.Intersects(c) {
			discs = append(discs, rc)
		}
	}
	if !boundaryCovered(c, discs) {
		return false
	}
	for i := range discs {
		for j := i + 1; j < len(discs); j++ {
			for _, p := range circleIntersections(discs[i], discs[j]) {
				if c.Center.Dist(p) >= c.Radius-geom.Eps {
					continue // on or outside the candidate boundary
				}
				covered := false
				for k, rc := range discs {
					if k != i && k != j && rc.Center.Dist(p) < rc.Radius-geom.Eps {
						covered = true
						break
					}
				}
				if !covered {
					return false
				}
			}
		}
	}
	return true
}

// boundaryCovered reports whether the boundary circle of c is covered by the
// union of discs, by exact angular-interval merging.
func boundaryCovered(c geom.Circle, discs []geom.Circle) bool {
	type arc struct{ lo, hi float64 }
	var arcs []arc
	for _, rc := range discs {
		d := c.Center.Dist(rc.Center)
		if d >= rc.Radius+c.Radius || rc.Radius+d <= c.Radius {
			continue // boundary circles don't interact
		}
		// Law of cosines: half-angle of the covered arc around the direction
		// from c's center to rc's center.
		cosPhi := (d*d + c.Radius*c.Radius - rc.Radius*rc.Radius) / (2 * d * c.Radius)
		phi := math.Acos(math.Max(-1, math.Min(1, cosPhi)))
		theta := math.Atan2(rc.Center.Y-c.Center.Y, rc.Center.X-c.Center.X)
		// Normalize into [0, 2π) and split wrap-around arcs.
		lo := math.Mod(theta-phi+4*math.Pi, 2*math.Pi)
		hi := math.Mod(theta+phi+4*math.Pi, 2*math.Pi)
		if lo <= hi {
			arcs = append(arcs, arc{lo, hi})
		} else {
			arcs = append(arcs, arc{lo, 2 * math.Pi}, arc{0, hi})
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
		reach = math.Max(reach, a.hi)
	}
	return reach >= 2*math.Pi-angEps
}

// circleIntersections returns the 0, 1 or 2 points where two circle
// boundaries meet.
func circleIntersections(a, b geom.Circle) []geom.Point {
	d := a.Center.Dist(b.Center)
	if d <= geom.Eps || d > a.Radius+b.Radius || d < math.Abs(a.Radius-b.Radius) {
		return nil
	}
	// Distance from a's center to the chord midpoint.
	x := (d*d + a.Radius*a.Radius - b.Radius*b.Radius) / (2 * d)
	h2 := a.Radius*a.Radius - x*x
	dir := b.Center.Sub(a.Center).Scale(1 / d)
	mid := a.Center.Add(dir.Scale(x))
	if h2 <= geom.Eps*geom.Eps {
		return []geom.Point{mid}
	}
	perp := geom.Point{X: -dir.Y, Y: dir.X}.Scale(math.Sqrt(h2))
	return []geom.Point{mid.Add(perp), mid.Sub(perp)}
}
