package core

import (
	"sort"

	"repro/internal/geom"
	"repro/internal/geom/geomtest"
)

// The peer phase of Algorithm 1 as the paper prints it, kept as the oracle of
// VerifierScratch.VerifyPeers: peers sorted by proximity (Heuristic 3.3),
// kNN_single on each in turn with Lemma 3.2 spelled as the paper spells it,
// then kNN_multiple deciding Lemma 3.8 once per candidate with the arc
// arrangement. None of it runs outside tests.

// SortPeersByProximity is Heuristic 3.3: a copy of peers in ascending distance
// between their cached query locations and q, peers at equal distance in
// their given order.
func SortPeersByProximity(q geom.Point, peers []PeerCache) []PeerCache {
	out := append([]PeerCache(nil), peers...)
	sort.SliceStable(out, func(i, j int) bool {
		return q.Dist2(out[i].QueryLoc) < q.Dist2(out[j].QueryLoc)
	})
	return out
}

// CertainRegion returns R_c, the union of the certain circles of all
// non-empty peers (Lemma 3.8).
func CertainRegion(peers []PeerCache) *geom.Region {
	r := geom.NewRegion()
	for _, p := range peers {
		if !p.IsEmpty() {
			r.Add(p.CertainCircle())
		}
	}
	return r
}

// paperPeerPhase runs the printed sequence on h for a k-NN query at q and
// returns what VerifyPeers returns. One liberty, DESIGN §4 D8's: the k-th
// certificate marks the query single-peer solved but does not end the loop,
// so a heap sized above k ends up holding everything the shares certify.
func paperPeerPhase(q geom.Point, k int, peers []PeerCache, h *ResultHeap) (used int, single bool) {
	sorted := SortPeersByProximity(q, peers)
	for _, p := range sorted {
		if p.IsEmpty() {
			continue
		}
		used++
		delta, radius := q.Dist(p.QueryLoc), p.Radius()
		for _, n := range p.Neighbors {
			d := q.Dist(n.Loc)
			h.Add(Candidate{POI: n, Dist: d, Certain: d+delta <= radius+geom.Eps})
		}
		if h.NumCertain() >= k {
			single = true
		}
	}
	if used > 0 {
		paperVerifyMultiPeer(q, sorted, h)
	}
	return used, single
}

// paperVerifyMultiPeer is kNN_multiple as printed: the distinct candidates in
// ascending distance (ties by ID), each certain when the disc around q through
// it is covered by R_c.
func paperVerifyMultiPeer(q geom.Point, peers []PeerCache, h *ResultHeap) {
	region := CertainRegion(peers)
	seen := make(map[int64]bool)
	var cands []Candidate
	for _, p := range peers {
		for _, n := range p.Neighbors {
			if !seen[n.ID] {
				seen[n.ID] = true
				cands = append(cands, Candidate{POI: n, Dist: q.Dist(n.Loc)})
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[j].after(cands[i]) })
	for _, c := range cands {
		if h.Complete() {
			return
		}
		c.Certain = geomtest.CoversCircle(region, geom.NewCircle(q, c.Dist))
		h.Add(c)
	}
}

// onRegionEdge reports whether the circle of radius d around q runs along the
// boundary of R_c: covered a hair inside, not covered a hair outside (the
// margin internal/geom's agreement tests use). There the arc test and the
// covered radius answer to different epsilons — the arc test is blind at a
// tangency — and honest shares land there routinely: the POI that ends two
// shares' certain circles is a vertex of the region's boundary.
func onRegionEdge(region *geom.Region, q geom.Point, d float64) bool {
	margin := 1e-6 * (1 + d)
	return d > margin && geomtest.CoversCircle(region, geom.NewCircle(q, d-margin)) &&
		!geomtest.CoversCircle(region, geom.NewCircle(q, d+margin))
}
