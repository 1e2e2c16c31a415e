package main

import (
	"sort"

	"repro/internal/core"
	"repro/internal/geom"
)

// oracle answers kNN and range queries by a linear scan of the POI set: the
// reference every sampled answer is checked against, IDs and order.
type oracle struct {
	pois []core.POI
	loc  map[int64]geom.Point
}

func newOracle(pois []core.POI) *oracle {
	o := &oracle{pois: pois, loc: make(map[int64]geom.Point, len(pois))}
	for _, p := range pois {
		o.loc[p.ID] = p.Loc
	}
	return o
}

type scanHit struct {
	poi core.POI
	d2  float64
}

func hitLess(a, b scanHit) bool {
	if a.d2 != b.d2 {
		return a.d2 < b.d2
	}
	return a.poi.ID < b.poi.ID
}

// knn returns the k POIs nearest q in ascending (distance, ID) order.
func (o *oracle) knn(q geom.Point, k int) []scanHit {
	best := make([]scanHit, 0, k+1)
	for _, p := range o.pois {
		h := scanHit{poi: p, d2: q.Dist2(p.Loc)}
		if len(best) == k && !hitLess(h, best[k-1]) {
			continue
		}
		i := sort.Search(len(best), func(i int) bool { return hitLess(h, best[i]) })
		best = append(best, scanHit{})
		copy(best[i+1:], best[i:])
		best[i] = h
		if len(best) > k {
			best = best[:k]
		}
	}
	return best
}

// checkKNN reports whether ids are exactly the min(k, |POIs|) nearest
// neighbours of q in ascending distance order. A different POI in some
// position is right only when it ties the reference's distance exactly.
func (o *oracle) checkKNN(q geom.Point, k int, ids []int64) bool {
	want := o.knn(q, k)
	if len(ids) != len(want) {
		return false
	}
	for i, id := range ids {
		if id == want[i].poi.ID {
			continue
		}
		loc, ok := o.loc[id]
		if !ok || q.Dist2(loc) != want[i].d2 {
			return false
		}
	}
	return true
}

// within returns every POI within r of q in ascending (distance, ID) order,
// with the server's inclusive boundary rule (distance <= r + geom.Eps).
func (o *oracle) within(q geom.Point, r float64) []scanHit {
	var hits []scanHit
	// Squared-distance prefilter (slightly wide), then the server's exact
	// test: math.Hypot on every POI would dominate the scan.
	lim := r + 2*geom.Eps
	lim2 := lim * lim * (1 + 1e-9)
	for _, p := range o.pois {
		if d2 := q.Dist2(p.Loc); d2 <= lim2 && q.Dist(p.Loc) <= r+geom.Eps {
			hits = append(hits, scanHit{poi: p, d2: d2})
		}
	}
	sort.Slice(hits, func(i, j int) bool { return hitLess(hits[i], hits[j]) })
	return hits
}

// checkRange reports whether got is exactly the POI set within r of q, in
// the reference order.
func (o *oracle) checkRange(q geom.Point, r float64, got []core.POI) bool {
	want := o.within(q, r)
	if len(got) != len(want) {
		return false
	}
	for i, p := range got {
		if p.ID != want[i].poi.ID && q.Dist2(p.Loc) != want[i].d2 {
			return false
		}
	}
	return true
}
