package core

import (
	"math"

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
// evaluated as Dist(Q, n_i) <= peer.Reach(Q), the one statement of the lemma.
func VerifySinglePeer(q geom.Point, peer PeerCache, h *ResultHeap) {
	if !peer.IsEmpty() {
		verifySinglePeerAt(q, peer, peer.Reach(q), h)
	}
}

// verifySinglePeerAt is VerifySinglePeer given reach = peer.Reach(q).
func verifySinglePeerAt(q geom.Point, peer PeerCache, reach float64, h *ResultHeap) {
	reach += geom.Eps
	for _, n := range peer.Neighbors {
		d := q.Dist(n.Loc)
		h.Add(Candidate{POI: n, Dist: d, Certain: d <= reach})
	}
}

// VerifyMultiPeer runs the kNN_multiple verification step (§3.2.2) with fresh
// scratch: VerifierScratch.VerifyMultiPeer for a caller with one query to run.
func VerifyMultiPeer(q geom.Point, peers []PeerCache, h *ResultHeap) {
	var s VerifierScratch
	s.VerifyMultiPeer(q, peers, h)
}

// VerifierScratch holds the reusable buffers of peer verification — the
// shares' geometry and the certain region — so a resolver worker can run it
// across many queries with zero steady-state heap allocations. The zero value
// is ready to use. A scratch must not be shared between goroutines.
type VerifierScratch struct {
	geoms  []peerGeom
	region *geom.Region
}

// peerGeom is one share's geometry as seen from the query point: the three
// distances verification needs, each taken once (a math.Hypot or two apiece).
type peerGeom struct {
	dist   float64 // Dist(q, P), the δ of Lemma 3.2
	radius float64 // PeerCache.Radius()
	reach  float64 // PeerCache.Reach(q) = radius − dist, bit for bit
}

// VerifyMultiPeer runs kNN_multiple (§3.2.2): every neighbor the peers hold is
// weighed against the merged certain region R_c and enters the heap certain
// when the disc around Q through it is covered (Lemma 3.8) — even when no
// single peer's circle covers it (the Figure 7 situation) — and uncertain
// otherwise. It is VerifyPeers asked for as many neighbors as h holds: the
// region certifies whatever a single share does, so nothing is lost by running
// it on an empty heap and nothing changes by running kNN_single first.
func (s *VerifierScratch) VerifyMultiPeer(q geom.Point, peers []PeerCache, h *ResultHeap) {
	s.VerifyPeers(q, h.K(), peers, h)
}

// VerifyPeers is the peer phase of Algorithm 1 — kNN_single in Heuristic 3.3
// order, then kNN_multiple — for a k-NN query at q over the shares one
// exchange delivered, and the only place outside tests where it is written
// down. h may be sized above k (a cache capacity): k certain entries settle
// the answer, the rest is what the host may keep. It returns the number of
// non-empty shares and whether the best single share alone certified k; the
// answer is settled when h.NumCertain() >= k.
//
// It rests on one fact (DESIGN §4 D9): the shares certify exactly the POIs
// they hold within one radius of q. A share certifies the POIs within its
// Reach (Lemma 3.2), those discs are nested around q, so visiting the shares
// in any order certifies what the one with the largest reach does, and
// Heuristic 3.3's aim — the k-th certificate from as few kNN_single runs as
// possible — is met by running that share alone. The merged region extends
// the disc to its covered radius ρ_max (Lemma 3.8), which is asked for only
// when the best share has not already filled h with certain entries. Every
// POI within a certified disc is in some share — each point of the disc lies
// in a certain circle whose owner knows every POI there — so the certain set
// stays an exact distance prefix at q.
//
// Everything else the shares hold is a candidate (Lemma 3.1) and enters h
// uncertain, for the §3.3 bounds — unless the answer is already settled, when
// no bound will be sent and only the certain prefix is read.
func (s *VerifierScratch) VerifyPeers(q geom.Point, k int, peers []PeerCache, h *ResultHeap) (used int, single bool) {
	return s.verify(q, k, peers, h, true)
}

// VerifySinglePeers is VerifyPeers stopped after kNN_single: every share is
// verified on its own (Lemma 3.2) and the merged region is not consulted —
// what the §3.3 bound studies measure, whose subject is the heap a host holds
// when single-peer verification falls short.
func (s *VerifierScratch) VerifySinglePeers(q geom.Point, k int, peers []PeerCache, h *ResultHeap) (used int, single bool) {
	return s.verify(q, k, peers, h, false)
}

func (s *VerifierScratch) verify(q geom.Point, k int, peers []PeerCache, h *ResultHeap, merged bool) (used int, single bool) {
	best, used := s.measure(q, peers)
	if used == 0 {
		return 0, false
	}
	reach := s.geoms[best].reach
	verifySinglePeerAt(q, peers[best], reach, h)
	single = h.NumCertain() >= k
	if h.Complete() {
		return used, single
	}

	radius := reach
	if merged {
		// ρ_max is asked for only as far as it can matter. A full heap holds
		// as many distinct POIs as will be kept, so no POI beyond its
		// farthest entry can be among the nearest that many; short of that,
		// no received POI lies beyond the far side of the farthest certain
		// circle.
		hi := 0.0
		if b := h.Bounds(); b.HasUpper {
			hi = b.Upper
		} else {
			for _, g := range s.geoms {
				hi = math.Max(hi, g.dist+g.radius)
			}
		}
		radius = s.certifiedRadius(q, peers, best, hi)
	}
	if single && radius <= reach {
		return used, single // the best share's circle is where the region ends
	}

	// Squared-distance window first, a hair wide on both sides: what the best
	// share has already certified is skipped, and once the answer is settled
	// so is everything beyond the disc; only a POI that can change h pays for
	// the exact distance h orders by. The heap deduplicates and orders by
	// (distance, ID), so shares are read as they come.
	lo2, hi2 := 0.0, math.Inf(1)
	if reach > geom.Eps {
		lo2 = (reach - geom.Eps) * (reach - geom.Eps)
	}
	if single {
		hi2 = (radius + 2*geom.Eps) * (radius + 2*geom.Eps)
	}
	for _, p := range peers {
		for _, n := range p.Neighbors {
			if d2 := q.Dist2(n.Loc); d2 < lo2 || d2 > hi2 {
				continue
			}
			d := q.Dist(n.Loc)
			if certain := d <= radius+geom.Eps; certain || !single {
				h.Add(Candidate{POI: n, Dist: d, Certain: certain})
			}
		}
	}
	return used, single
}

// measure takes every non-empty share's geometry from q into s.geoms (index
// for index with peers) and returns the index of the one with the largest
// reach — the first of them on a tie — and how many there are.
func (s *VerifierScratch) measure(q geom.Point, peers []PeerCache) (best, used int) {
	geoms := s.geoms[:0]
	for i, p := range peers {
		var g peerGeom
		if !p.IsEmpty() {
			g.radius, g.dist = p.Radius(), q.Dist(p.QueryLoc)
			g.reach = g.radius - g.dist
			if used++; used == 1 || g.reach > geoms[best].reach {
				best = i
			}
		}
		geoms = append(geoms, g)
	}
	s.geoms = geoms
	return best, used
}

// certifiedRadius returns, as far as hi, the radius of the disc around q
// within which the measured shares hold every POI: the largest single reach
// (Lemma 3.2), extended to the covered radius of the merged certain region
// (Lemma 3.8) when hi lies beyond it. A POI at distance d is certain exactly
// when d <= certifiedRadius + geom.Eps. With q outside every certain circle
// the radius is the negative best reach, and nothing is.
func (s *VerifierScratch) certifiedRadius(q geom.Point, peers []PeerCache, best int, hi float64) float64 {
	reach := s.geoms[best].reach
	if reach < -geom.Eps || reach >= hi {
		return reach
	}
	if s.region == nil {
		s.region = geom.NewRegion()
	}
	s.region.Reset()
	for i, p := range peers {
		if !p.IsEmpty() {
			s.region.Add(geom.NewCircle(p.QueryLoc, s.geoms[i].radius))
		}
	}
	return math.Max(reach, s.region.MaxCoveredRadius(q, hi))
}
