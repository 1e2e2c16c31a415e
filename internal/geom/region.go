package geom

import (
	"cmp"
	"math"
	"slices"
	"sort"
)

// Region is the union of a set of discs. In the multi-peer verification step
// of the paper (kNN_multiple, §3.2.2) the certain region R_c is the union of
// every reachable peer's certain circle; a candidate point of interest n_i is
// a certain nearest neighbor of the query point Q exactly when the circle
// centered at Q through n_i is fully covered by R_c (Lemma 3.8).
type Region struct {
	circles    []Circle
	overlapBuf []Circle   // scratch, reused across CoversCircle calls
	nearBuf    []nearDisc // scratch, reused across MaxCoveredRadius calls
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

// nearDisc is one positive-radius disc as MaxCoveredRadius sees it from its
// center point p: d = Dist(p, disc center) and gap = |d − radius|, the
// distance from p to the nearest point of the disc's boundary circle — no
// point of that boundary is closer.
type nearDisc struct {
	idx    int
	d, gap float64
}

// MaxCoveredRadius returns the largest radius rad (capped at hi) such that the
// disc centered at p with radius rad is covered by the region — the monotone
// coverage threshold ρ_max(p). Coverage at a fixed center is monotone in the
// radius, so CoversCircle(NewCircle(p, rad)) holds exactly for rad ≤ ρ_max (up
// to the shared Eps conventions), which lets a verifier replace per-candidate
// coverage tests with one threshold computation and a distance comparison.
// It returns 0 when p itself is uncovered, or covered only by zero-radius
// point circles (which contribute no interior).
//
// ρ_max is the distance from p to the nearest *exposed* boundary point of the
// union — a point on some disc's boundary circle that is not strictly (by
// Eps) interior to any other disc. Along one exposed arc the distance to p
// has its only local minimum at p's radial projection onto that circle, so
// the nearest exposed point is either such a projection or an arc endpoint,
// and arc endpoints are intersection vertices of two boundary circles.
// Enumerating those two finite sets and keeping the nearest exposed member
// is therefore exact, with no angle ever computed; corners of interior holes
// are vertices too and need no separate treatment, and duplicate discs lie
// on, not inside, each other, so neither erases the other's boundary.
//
// Two prunes keep the enumeration short. A boundary circle passes no closer
// to p than its gap, so a disc whose gap is not below the best distance so
// far contributes nothing — neither its projection nor any of its vertices.
// And the disc around p of radius inner = max(radius − d) over the discs
// containing p lies inside one region disc, so any point nearer than that is
// covered without looking.
func (r *Region) MaxCoveredRadius(p Point, hi float64) float64 {
	if hi <= 0 {
		return 0
	}
	near := r.nearBuf[:0]
	covered, inner := false, 0.0
	for i, c := range r.circles {
		if c.Radius <= Eps {
			continue // point circles have no boundary arcs and no interior
		}
		d := math.Sqrt(p.Dist2(c.Center))
		if d <= c.Radius+Eps {
			covered = true
			if c.Radius-d > inner {
				inner = c.Radius - d
			}
		}
		if gap := math.Abs(d - c.Radius); gap < hi {
			near = append(near, nearDisc{idx: i, d: d, gap: gap})
		}
	}
	r.nearBuf = near
	if !covered {
		return 0
	}
	// Points closer to p than this are strictly inside the disc that set
	// inner; the slack keeps the shortcut inside what exposed would decide.
	skip := inner - 2*Eps

	best := hi
	for _, n := range near {
		if n.gap >= best || n.gap < skip {
			continue
		}
		c := r.circles[n.idx]
		// p's radial projection; any direction serves when p is the center,
		// where every boundary point is equally far.
		proj := Point{c.Center.X + c.Radius, c.Center.Y}
		if n.d > Eps {
			s := c.Radius / n.d
			proj = Point{c.Center.X + (p.X-c.Center.X)*s, c.Center.Y + (p.Y-c.Center.Y)*s}
		}
		if r.exposed(proj, n.idx, n.idx) {
			best = n.gap
		}
	}
	if best <= inner {
		return best // the covered disc around p touches the union's boundary
	}

	// Nearest boundaries first: their vertices tend to be the near ones, so
	// best tightens early and each loop can stop at the first disc it prunes.
	slices.SortFunc(near, func(a, b nearDisc) int { return cmp.Compare(a.gap, b.gap) })
	skip2 := 0.0
	if skip > 0 {
		skip2 = skip * skip
	}
	for a, na := range near {
		if na.gap >= best {
			break
		}
		ca := r.circles[na.idx]
		for _, nb := range near[a+1:] {
			if nb.gap >= best {
				break
			}
			cb := r.circles[nb.idx]
			// Most pairs do not cross; tell without a square root.
			dx, dy := cb.Center.X-ca.Center.X, cb.Center.Y-ca.Center.Y
			D2 := dx*dx + dy*dy
			if sum, diff := ca.Radius+cb.Radius, ca.Radius-cb.Radius; D2 > sum*sum || D2 < diff*diff || D2 <= Eps*Eps {
				continue
			}
			// The two vertices, in units of the center-to-center vector: t
			// along it to the common chord, ±w across it (one division, one
			// square root; a tangency gives the same point twice).
			inv := 1 / D2
			t := 0.5 + 0.5*(ca.Radius*ca.Radius-cb.Radius*cb.Radius)*inv
			w2 := ca.Radius*ca.Radius*inv - t*t
			if w2 < 0 {
				w2 = 0
			}
			w := math.Sqrt(w2)
			mx, my := ca.Center.X+t*dx, ca.Center.Y+t*dy
			for _, v := range [2]Point{{mx - w*dy, my + w*dx}, {mx + w*dy, my - w*dx}} {
				d2 := p.Dist2(v)
				if d2 >= best*best || d2 < skip2 {
					continue
				}
				if r.exposed(v, na.idx, nb.idx) {
					best = math.Sqrt(d2)
				}
			}
		}
	}
	return best
}

// exposed reports whether x — a point on the boundary circles of discs i and
// j (i == j for a point taken from one circle) — is strictly inside no other
// positive-radius disc of the region, i.e. lies on the boundary of the union.
func (r *Region) exposed(x Point, i, j int) bool {
	for k, c := range r.circles {
		if k == i || k == j || c.Radius <= Eps {
			continue
		}
		if in := c.Radius - Eps; x.Dist2(c.Center) < in*in {
			return false
		}
	}
	return true
}
