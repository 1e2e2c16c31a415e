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
	reach := peer.Reach(q) + geom.Eps
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
// certain region, the candidate dedup map, and the candidate sort slice — so
// a resolver worker can run VerifyMultiPeer across many queries with zero
// steady-state heap allocations. The zero value is ready to use. A scratch
// must not be shared between goroutines.
type VerifierScratch struct {
	region *geom.Region
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
	if h.Complete() {
		return
	}
	if s.region == nil {
		s.region = geom.NewRegion()
	}
	s.region.Reset()
	for _, p := range peers {
		if !p.IsEmpty() {
			s.region.Add(p.CertainCircle())
		}
	}
	if s.region.IsEmpty() {
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
		if c.Dist <= geom.Eps {
			// Degenerate candidate at Q itself: certain iff Q is covered,
			// matching CoversCircle's point-circle rule.
			c.Certain = s.region.Contains(q)
		} else {
			c.Certain = c.Dist <= rho+geom.Eps
		}
		h.Add(c)
	}
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
