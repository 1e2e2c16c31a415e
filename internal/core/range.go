package core

import (
	"sort"

	"repro/internal/geom"
)

// This file implements sharing-based range queries — the first of the
// extensions the paper lists as future work (§5: "we plan to extend our work
// to investigate other types of spatial queries, such as range and spatial
// join searches"). The verification argument mirrors the kNN lemmas:
//
//   - a single peer P answers the range query (Q, r) completely when
//     r + δ <= Dist(P, n_k)  (the query disc lies inside P's certain
//     circle — the range analogue of Lemma 3.2);
//   - multiple peers answer it completely when the query disc is covered by
//     the merged certain region R_c (the analogue of Lemma 3.8);
//
// and in either case the exact answer is the set of cached POIs within r of
// Q, because every existing POI inside a covered disc appears in some peer's
// cache.

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
	// PeersUsed is the number of non-empty peer caches examined.
	PeersUsed int
}

// RangeQuery answers "every POI within r of q" by peer verification first
// and the server only as fallback. srv may be nil: the best-effort union of
// peer data (marked uncertain) is returned instead.
func RangeQuery(q geom.Point, r float64, peers []PeerCache, srv RangeServer, opts Options) RangeResult {
	sorted := SortPeersByProximity(q, peers)
	used := 0
	for _, p := range sorted {
		if !p.IsEmpty() {
			used++
		}
	}

	// Single-peer completeness: the query disc inside one certain circle.
	for _, p := range sorted {
		if p.IsEmpty() {
			continue
		}
		delta := q.Dist(p.QueryLoc)
		if r+delta <= p.Radius()+geom.Eps {
			return RangeResult{
				POIs:      collectWithin(q, r, []PeerCache{p}),
				Source:    SolvedBySinglePeer,
				Certain:   true,
				PeersUsed: used,
			}
		}
	}

	// Multi-peer completeness: the query disc covered by R_c.
	if used > 0 {
		if CertainRegion(sorted).CoversCircle(geom.NewCircle(q, r)) {
			return RangeResult{
				POIs:      collectWithin(q, r, sorted),
				Source:    SolvedByMultiPeer,
				Certain:   true,
				PeersUsed: used,
			}
		}
	}

	if srv == nil {
		return RangeResult{
			POIs:      collectWithin(q, r, sorted),
			Source:    SolvedUncertain,
			Certain:   false,
			PeersUsed: used,
		}
	}
	pois := srv.Range(q, r)
	out := make([]RankedPOI, len(pois))
	for i, p := range pois {
		out[i] = RankedPOI{POI: p, Dist: q.Dist(p.Loc), Rank: i + 1}
	}
	return RangeResult{
		POIs:      out,
		Source:    SolvedByServer,
		Certain:   true,
		PeersUsed: used,
	}
}

// collectWithin gathers the distinct cached POIs within r of q, ascending by
// distance with equal distances broken by POI ID (the candSorter order, which
// is also the server's), with ranks assigned.
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
