package geom

import (
	"cmp"
	"math"
	"slices"
)

// Region is the union of a set of discs. In the multi-peer verification step
// of the paper (kNN_multiple, §3.2.2) the certain region R_c is the union of
// every reachable peer's certain circle; a candidate point of interest n_i is
// a certain nearest neighbor of the query point Q exactly when the circle
// centered at Q through n_i is fully covered by R_c (Lemma 3.8).
type Region struct {
	circles []Circle
	nearBuf []nearDisc // scratch, reused across MaxCoveredRadius calls
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
// coverage threshold ρ_max(p), and the one statement of Lemma 3.8 outside
// _test.go. Coverage at a fixed center is monotone in the radius, so the disc
// of radius rad around p is covered exactly for rad ≤ ρ_max (up to the Eps
// conventions it shares with the per-circle arc test, its referee in
// coverscircle_test.go): a verifier needs one threshold and a distance
// comparison per candidate, not a coverage test per candidate.
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
