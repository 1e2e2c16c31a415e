package core

import (
	"sort"

	"repro/internal/geom"
)

// This file implements sharing-based range queries — the first of the
// extensions the paper lists as future work (§5: "we plan to extend our work
// to investigate other types of spatial queries, such as range and spatial
// join searches"). The verification argument is the kNN lemmas' own: the
// shares of one exchange hold every POI within their certified radius of Q
// (VerifierScratch.certifiedRadius — the largest single Reach, Lemma 3.2,
// extended over the merged certain region, Lemma 3.8), so the range query
// (Q, r) is answered completely exactly when r is within that radius, and the
// answer is the set of received POIs within r of Q.

// RangeServer is the remote database interface for range queries.
type RangeServer interface {
	// Range returns every POI within Euclidean distance r of q, in
	// ascending distance order, equal distances by ascending ID.
	Range(q geom.Point, r float64) []POI
}

// RangeResult is the outcome of a sharing-based range query.
type RangeResult struct {
	// POIs within the radius, ascending by distance. Exact when Certain.
	POIs []RankedPOI
	// Source records how the query was resolved. SolvedUncertain marks a
	// best-effort answer produced without server connectivity.
	Source Source
	// Certain reports whether the answer is provably complete.
	Certain bool
	// PeersUsed is the number of non-empty peer caches received.
	PeersUsed int
}

// RangeQuery answers "every POI within r of q" by peer verification first
// and the server only as fallback. srv may be nil: the best-effort union of
// peer data (marked uncertain) is returned instead.
func RangeQuery(q geom.Point, r float64, peers []PeerCache, srv RangeServer, opts Options) RangeResult {
	var s VerifierScratch
	best, used := s.measure(q, peers)
	res := RangeResult{Source: SolvedUncertain, PeersUsed: used}
	if used > 0 && r <= s.certifiedRadius(q, peers, best, r)+geom.Eps {
		res.Certain = true
		res.Source = SolvedByMultiPeer
		if r <= s.geoms[best].reach+geom.Eps {
			res.Source = SolvedBySinglePeer
		}
	}
	if res.Certain || srv == nil {
		res.POIs = collectWithin(q, r, peers)
		return res
	}
	pois := srv.Range(q, r)
	res.POIs = make([]RankedPOI, len(pois))
	for i, p := range pois {
		res.POIs[i] = RankedPOI{POI: p, Dist: q.Dist(p.Loc), Rank: i + 1}
	}
	res.Source, res.Certain = SolvedByServer, true
	return res
}

// collectWithin gathers the distinct cached POIs within r of q, ascending by
// distance with equal distances broken by POI ID (the heap's order, which is
// also the server's), with ranks assigned.
func collectWithin(q geom.Point, r float64, peers []PeerCache) []RankedPOI {
	seen := make(map[int64]bool)
	var out []RankedPOI
	for _, p := range peers {
		for _, n := range p.Neighbors {
			if seen[n.ID] {
				continue
			}
			seen[n.ID] = true
			if d := q.Dist(n.Loc); d <= r+geom.Eps {
				out = append(out, RankedPOI{POI: n, Dist: d})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].ID < out[j].ID
	})
	for i := range out {
		out[i].Rank = i + 1
	}
	return out
}
