package core

import (
	"fmt"
	"slices"

	"repro/internal/geom"
)

// PeerCache is the NN query result a peer shares over the ad-hoc network:
// the location at which the peer issued its most recent kNN query and the
// certain nearest neighbors it obtained, sorted in ascending order of their
// distance to the query location (the paper's <n_i, P> tuples).
//
// The crucial property the verification lemmas rely on: the peer's cached
// set contains every POI within CertainCircle() — the disc centered at
// QueryLoc with radius Radius() — because the cached neighbors are the exact
// top-k of the query location.
type PeerCache struct {
	QueryLoc  geom.Point
	Neighbors []POI
}

// NewPeerCache builds a PeerCache from an unordered neighbor set, sorting a
// private copy by distance to the query location.
func NewPeerCache(queryLoc geom.Point, neighbors []POI) PeerCache {
	ns := make([]POI, len(neighbors))
	copy(ns, neighbors)
	SortByDistance(queryLoc, ns)
	return PeerCache{QueryLoc: queryLoc, Neighbors: ns}
}

// SortByDistance orders pois in place by ascending squared distance to q —
// the neighbor order every PeerCache carries. It is the one comparator behind
// NewPeerCache and the caches' in-place stores (internal/cache), and it
// allocates nothing. The sort is not stable, but slices.SortFunc and the
// sort.Slice it replaced run the same pdqsort over the same comparison
// outcomes, so POIs at exactly equal distance land where they always did
// (TestSortByDistanceMatchesSortSlice) — which keeps every figure
// byte-identical.
func SortByDistance(q geom.Point, pois []POI) {
	slices.SortFunc(pois, func(a, b POI) int {
		da, db := q.Dist2(a.Loc), q.Dist2(b.Loc)
		switch {
		case da < db:
			return -1
		case da > db:
			return 1
		}
		return 0
	})
}

// IsEmpty reports whether the cache holds no neighbors (nothing to share).
func (pc PeerCache) IsEmpty() bool { return len(pc.Neighbors) == 0 }

// Radius returns Dist(P, n_k): the distance from the cached query location to
// the farthest cached neighbor, i.e. the radius of the peer's certain area.
// It is zero for an empty cache.
func (pc PeerCache) Radius() float64 {
	if len(pc.Neighbors) == 0 {
		return 0
	}
	return pc.QueryLoc.Dist(pc.Neighbors[len(pc.Neighbors)-1].Loc)
}

// CertainCircle returns the disc within which the peer knows every POI.
func (pc PeerCache) CertainCircle() geom.Circle {
	return geom.NewCircle(pc.QueryLoc, pc.Radius())
}

// Reach returns ρ_P(q) = Radius() − Dist(q, QueryLoc): the radius of the
// largest disc around q that lies inside the peer's certain circle. It is
// Lemma 3.2 as one number — the peer knows every POI within Reach(q) of q, so
// a cached neighbor n is a certain nearest neighbor of q exactly when
// Dist(q, n) <= Reach(q) (within geom.Eps), and the neighbors a peer can
// certify are nested discs around q: the peer with the larger reach certifies
// everything the other does. Negative when q lies outside the certain circle
// (the peer certifies nothing at q).
func (pc PeerCache) Reach(q geom.Point) float64 {
	return pc.Radius() - q.Dist(pc.QueryLoc)
}

// String implements fmt.Stringer.
func (pc PeerCache) String() string {
	return fmt.Sprintf("peercache(%s, %d neighbors, r=%.2f)",
		pc.QueryLoc, len(pc.Neighbors), pc.Radius())
}
