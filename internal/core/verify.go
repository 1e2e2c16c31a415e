package core

import (
	"sort"

	"repro/internal/geom"
)

// VerifySinglePeer runs the kNN_single verification step (§3.2.1) of one
// peer's cached result against the query point q, adding each of the peer's
// neighbors to the heap as certain or uncertain.
//
// The certainty rule is Lemma 3.2: with δ = Dist(Q, P) and n_k the peer's
// farthest cached neighbor, a neighbor n_i is certain when
//
//	Dist(Q, n_i) + δ <= Dist(P, n_k)
//
// because the disc around Q through n_i then lies entirely inside the peer's
// certain circle, which contains every existing POI the peer knows about.
// Otherwise Lemma 3.1 applies: an unknown POI could hide in the uncovered
// part of the disc, so n_i is only a candidate (uncertain). The inequality is
// evaluated as Dist(Q, n_i) <= peer.Reach(Q), the one statement of the lemma
// shared with callers that ask what a peer could certify before visiting it.
func VerifySinglePeer(q geom.Point, peer PeerCache, h *ResultHeap) {
	if peer.IsEmpty() {
		return
	}
	VerifySinglePeerAt(q, peer, peer.Reach(q), h)
}

// VerifySinglePeerAt is VerifySinglePeer for a caller that already holds
// reach = peer.Reach(q) (PeerGeom.Reach).
func VerifySinglePeerAt(q geom.Point, peer PeerCache, reach float64, h *ResultHeap) {
	reach += geom.Eps
	for _, n := range peer.Neighbors {
		d := q.Dist(n.Loc)
		h.Add(Candidate{POI: n, Dist: d, Certain: d <= reach})
	}
}

// CertainRegion returns R_c, the union of the certain circles of all peers
// (Lemma 3.8).
func CertainRegion(peers []PeerCache) *geom.Region {
	r := geom.NewRegion()
	for _, p := range peers {
		if !p.IsEmpty() {
			r.Add(p.CertainCircle())
		}
	}
	return r
}

// VerifyMultiPeer runs the kNN_multiple verification step (§3.2.2): it
// merges the certain circles of every peer into the certain region R_c and
// re-examines each candidate neighbor against the whole region. A candidate
// n_i is certain when the disc centered at Q with radius Dist(Q, n_i) is
// fully covered by R_c (Lemma 3.8) — even when no single peer's circle
// covers it (the Figure 7 situation).
//
// Candidates are drawn from the union of all peers' cached neighbors;
// entries already certified in the heap are kept as-is. This convenience
// wrapper allocates fresh scratch per call; resolver loops should hold a
// VerifierScratch and call its method instead.
func VerifyMultiPeer(q geom.Point, peers []PeerCache, h *ResultHeap) {
	var s VerifierScratch
	s.VerifyMultiPeer(q, peers, h)
}

// VerifierScratch holds the reusable buffers of multi-peer verification — the
// certain region, the peers' geometry, the candidate dedup map, and the
// candidate sort slice — so a resolver worker can run it across many queries
// with zero steady-state heap allocations. The zero value is ready to use. A
// scratch must not be shared between goroutines.
type VerifierScratch struct {
	region *geom.Region
	geoms  []PeerGeom
	seen   map[int64]bool
	cands  candSorter
}

// VerifyMultiPeer is the scratch-reusing form of the package-level
// VerifyMultiPeer, with one algorithmic change: instead of running the
// arc-arrangement coverage test once per candidate, it computes the region's
// monotone coverage threshold ρ_max = MaxCoveredRadius(q, ·) once and
// certifies each candidate by the comparison Dist ≤ ρ_max. Coverage of a disc
// centered at Q is monotone in its radius, so the verdicts are identical to
// the per-candidate CoversCircle path (the property test
// TestMonotoneVerificationMatchesCoversCircle pins this), while the
// O(candidates × arrangement) loop collapses to one arrangement pass plus a
// float comparison per candidate.
func (s *VerifierScratch) VerifyMultiPeer(q geom.Point, peers []PeerCache, h *ResultHeap) {
	geoms := s.geoms[:0]
	for _, p := range peers {
		geoms = append(geoms, p.GeomAt(q))
	}
	s.geoms = geoms
	s.VerifyMultiPeerAt(q, peers, geoms, h)
}

// VerifyMultiPeerAt is VerifyMultiPeer for a caller that already holds
// geoms[i] = peers[i].GeomAt(q).
func (s *VerifierScratch) VerifyMultiPeerAt(q geom.Point, peers []PeerCache, geoms []PeerGeom, h *ResultHeap) {
	if h.Complete() || !s.buildRegion(peers, geoms) {
		return
	}
	cands, maxDist := s.gatherCandidates(q, peers)
	if len(cands) == 0 {
		return
	}
	rho := s.region.MaxCoveredRadius(q, maxDist)
	for i := range cands {
		if h.Complete() {
			return
		}
		c := cands[i]
		c.Certain = s.certainWithin(q, c.Dist, rho)
		h.Add(c)
	}
}

// CertifyCovered finishes Lemma 3.8 for a query whose answer is already
// settled: every received POI farther from q than floor — the radius out to
// which a single share has already certified everything (Lemma 3.2) — and
// within the merged region's covered radius ρ_max is added to h as certain.
// Every POI that close to q is in some share (each point of that disc lies in
// a certain circle whose owner knows every POI in it), so the certain set
// stays an exact distance prefix at q. Unlike VerifyMultiPeer it adds nothing
// uncertain and so needs no candidate order and no dedup beyond the heap's
// own: a certified POI is certified whichever share shows it first, and the
// heap keeps the nearest of them whatever order they arrive in.
//
// ρ_max is asked for only as far as it can matter. A full heap holds as many
// distinct POIs as will be kept, so no POI beyond its farthest entry can be
// among the nearest that many; short of that, no received POI lies beyond the
// far side of the farthest certain circle.
func (s *VerifierScratch) CertifyCovered(q geom.Point, peers []PeerCache, geoms []PeerGeom, floor float64, h *ResultHeap) {
	if h.Complete() || !s.buildRegion(peers, geoms) {
		return
	}
	hi := 0.0
	if b := h.Bounds(); b.HasUpper {
		hi = b.Upper
	} else {
		for _, g := range geoms {
			if far := g.Dist + g.Radius; far > hi {
				hi = far
			}
		}
	}
	rho := s.region.MaxCoveredRadius(q, hi)
	if rho <= floor {
		return // the single share's own circle is where the region ends
	}
	// Squared-distance window first, a hair wide on both sides; only a POI
	// inside it pays for the exact distance the heap orders by.
	lo2, hi2 := 0.0, (rho+2*geom.Eps)*(rho+2*geom.Eps)
	if floor > geom.Eps {
		lo2 = (floor - geom.Eps) * (floor - geom.Eps)
	}
	for _, p := range peers {
		for _, n := range p.Neighbors {
			if d2 := q.Dist2(n.Loc); d2 < lo2 || d2 > hi2 {
				continue
			}
			if d := q.Dist(n.Loc); s.certainWithin(q, d, rho) {
				h.Add(Candidate{POI: n, Dist: d, Certain: true})
			}
		}
	}
}

// buildRegion rebuilds the scratch region as R_c, the union of the non-empty
// peers' certain circles, and reports whether it holds any.
func (s *VerifierScratch) buildRegion(peers []PeerCache, geoms []PeerGeom) bool {
	if s.region == nil {
		s.region = geom.NewRegion()
	}
	s.region.Reset()
	for i, p := range peers {
		if !p.IsEmpty() {
			s.region.Add(geom.NewCircle(p.QueryLoc, geoms[i].Radius))
		}
	}
	return !s.region.IsEmpty()
}

// certainWithin is Lemma 3.8 for one candidate at distance dist from q, given
// the region's covered radius rho at q.
func (s *VerifierScratch) certainWithin(q geom.Point, dist, rho float64) bool {
	if dist <= geom.Eps {
		// Degenerate candidate at Q itself: certain iff Q is covered,
		// matching CoversCircle's point-circle rule.
		return s.region.Contains(q)
	}
	return dist <= rho+geom.Eps
}

// gatherCandidates deduplicates the peers' cached neighbors by POI ID into
// the scratch slice, sorted by the repo's total order (ascending distance,
// ties broken by POI ID) so the verification order — and with it the heap's
// early exit — is independent of peer enumeration order. It returns the
// scratch-backed slice and the largest candidate distance.
func (s *VerifierScratch) gatherCandidates(q geom.Point, peers []PeerCache) ([]Candidate, float64) {
	if s.seen == nil {
		s.seen = make(map[int64]bool)
	} else {
		clear(s.seen)
	}
	s.cands = s.cands[:0]
	maxDist := 0.0
	for _, p := range peers {
		for _, n := range p.Neighbors {
			if s.seen[n.ID] {
				continue
			}
			s.seen[n.ID] = true
			d := q.Dist(n.Loc)
			if d > maxDist {
				maxDist = d
			}
			s.cands = append(s.cands, Candidate{POI: n, Dist: d})
		}
	}
	sort.Sort(&s.cands)
	return s.cands, maxDist
}

// candSorter orders candidates by ascending distance with equal distances
// broken by POI ID — the same total order INE and ServerModule.Range use.
// It implements sort.Interface on the pointer receiver so sorting the
// scratch slice does not allocate (sort.Slice's closure and reflect-based
// swapper both escape to the heap).
type candSorter []Candidate

func (s *candSorter) Len() int { return len(*s) }
func (s *candSorter) Less(i, j int) bool {
	a, b := (*s)[i], (*s)[j]
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.ID < b.ID
}
func (s *candSorter) Swap(i, j int) { (*s)[i], (*s)[j] = (*s)[j], (*s)[i] }
