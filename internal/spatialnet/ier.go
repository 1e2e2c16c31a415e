package spatialnet

import (
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/geom"
)

// NetworkResult is one network-distance nearest neighbor: the POI, its
// Euclidean distance to the query point, and its network distance.
type NetworkResult struct {
	core.POI
	ED float64
	ND float64
}

// IER computes the k network-distance nearest neighbors of q with the
// Incremental Euclidean Restriction algorithm of Papadias et al. (§3.4,
// Figure 8): Euclidean NNs are drawn in ascending order from next; each
// candidate's network distance is priced by the one expansion pf grows from q,
// bounded by the current k-th network distance; the search stops once the
// next Euclidean NN lies beyond that bound (the Euclidean lower-bound property
// guarantees no better candidate remains). Unreachable candidates are
// skipped. Results ascend by (ND, POI ID).
func IER(pf *PathFinder, q geom.Point, k int, next func() (core.POI, bool)) []NetworkResult {
	if k <= 0 {
		return nil
	}
	pf.Expand(q)
	results := make([]NetworkResult, 0, k+1)
	bound := math.Inf(1) // S_bound: the k-th network distance once k are known
	for {
		poi, ok := next()
		if !ok {
			break
		}
		ed := q.Dist(poi.Loc)
		if ed > bound {
			break
		}
		nd, ok := pf.Dist(poi.Loc, bound)
		if !ok {
			continue
		}
		results = insertByND(results, NetworkResult{POI: poi, ED: ed, ND: nd}, k)
		if len(results) == k {
			bound = results[k-1].ND
		}
	}
	return results
}

// byND is the result order: ascending network distance, equal distances by
// ascending POI ID — a total order, so every implementation agrees on which
// of several equidistant POIs makes the k-th place.
func byND(a, b NetworkResult) bool {
	if a.ND != b.ND {
		return a.ND < b.ND
	}
	return a.ID < b.ID
}

// insertByND inserts r into the byND-ascending slice, trimming to k entries.
func insertByND(rs []NetworkResult, r NetworkResult, k int) []NetworkResult {
	i := sort.Search(len(rs), func(i int) bool { return byND(r, rs[i]) })
	rs = append(rs, NetworkResult{})
	copy(rs[i+1:], rs[i:])
	rs[i] = r
	if len(rs) > k {
		rs = rs[:k]
	}
	return rs
}

// FetchFunc runs one exchange of the sharing infrastructure for the
// (implicit) query point and returns its Euclidean nearest neighbors in
// ascending distance order: at least n of them unless the data set holds
// fewer, and as many more as the exchange certified — a host's cache keeps
// up to C_Size.
type FetchFunc func(n int) []core.POI

// SNNN executes Algorithm 2, the Sharing-based Network distance Nearest
// Neighbor query: IER whose Euclidean candidates come from the sharing
// infrastructure. Algorithm 2 re-runs SENN(Q, k+i) for every extra candidate;
// one exchange already returns every neighbor it certified, so the candidates
// are read off the last fetch's ascending prefix and a further exchange —
// for one neighbor more than seen so far — happens only when that prefix runs
// out before the next Euclidean distance exceeds S_bound. Same answers, fewer
// exchanges.
func SNNN(pf *PathFinder, q geom.Point, k int, fetch FetchFunc) []NetworkResult {
	var prefix []core.POI
	seen, asked := 0, 0
	return IER(pf, q, k, func() (core.POI, bool) {
		if seen == len(prefix) {
			if len(prefix) < asked {
				return core.POI{}, false // the last exchange came back short: data set exhausted
			}
			asked = max(k, seen+1)
			if prefix = fetch(asked); len(prefix) <= seen {
				return core.POI{}, false
			}
		}
		seen++
		return prefix[seen-1], true
	})
}

// BruteForceNetworkKNN computes the exact k network-distance nearest
// neighbors by pricing every POI — the correctness oracle for IER/SNNN.
func BruteForceNetworkKNN(pf *PathFinder, q geom.Point, k int, pois []core.POI) []NetworkResult {
	pf.Expand(q)
	var all []NetworkResult
	for _, p := range pois {
		if nd, ok := pf.Dist(p.Loc, math.Inf(1)); ok {
			all = append(all, NetworkResult{POI: p, ED: q.Dist(p.Loc), ND: nd})
		}
	}
	sort.Slice(all, func(i, j int) bool { return byND(all[i], all[j]) })
	if len(all) > k {
		all = all[:k]
	}
	return all
}
