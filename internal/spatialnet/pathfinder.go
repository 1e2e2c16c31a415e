package spatialnet

import (
	"math"

	"repro/internal/geom"
	"repro/internal/pq"
)

// PathFinder is the package's one Dijkstra search: epoch-stamped scratch over
// one graph and a single resumable, bounded settle loop. ShortestPath — the
// route planner the mobility simulator shares across all mobile hosts — is
// that loop stopped at the destination; Expand and Dist are the same loop
// seeded at a query point and advanced candidate by candidate, which is how
// IER and SNNN price network distances. Searching allocates nothing once the
// queue has grown (ShortestPath allocates the path it returns). A PathFinder
// is not safe for concurrent use.
type PathFinder struct {
	g     *Graph
	dist  []float64
	prev  []NodeID
	stamp []uint32
	epoch uint32
	pq    pq.Queue[NodeID]
	// frontier is the distance of the last node settled: every label at or
	// below it is final, because a later relaxation starts from a node at
	// least that far out and edge lengths are non-negative.
	frontier float64
	settles  int

	// The query-scoped expansion (Expand): the query point's snap, whose two
	// edge endpoints seed the search with the snap offset already added.
	src SnapResult
}

// NewPathFinder returns a PathFinder over g. The graph must not gain nodes
// afterwards.
func NewPathFinder(g *Graph) *PathFinder {
	n := g.NumNodes()
	return &PathFinder{
		g:     g,
		dist:  make([]float64, n),
		prev:  make([]NodeID, n),
		stamp: make([]uint32, n),
	}
}

func (pf *PathFinder) reset() {
	pf.epoch++
	if pf.epoch == 0 { // wrapped: clear stamps once per 4G queries
		for i := range pf.stamp {
			pf.stamp[i] = 0
		}
		pf.epoch = 1
	}
	pf.pq = pf.pq[:0]
	pf.frontier = -1
	pf.settles = 0
}

// label returns the tentative distance of id in the current search.
func (pf *PathFinder) label(id NodeID) float64 {
	if pf.stamp[id] != pf.epoch {
		return math.Inf(1)
	}
	return pf.dist[id]
}

// relax lowers id's label to d, reached from via, when d improves on it.
func (pf *PathFinder) relax(id NodeID, d float64, via NodeID) {
	if d < pf.label(id) {
		pf.stamp[id] = pf.epoch
		pf.dist[id] = d
		pf.prev[id] = via
		pf.pq.Push(d, id)
	}
}

// settle advances the search until a and b both carry final labels, the
// queue runs dry, or every unsettled node is so far out that its distance
// plus slack exceeds bound. It resumes where the previous call stopped.
func (pf *PathFinder) settle(a, b NodeID, slack, bound float64) {
	for len(pf.pq) > 0 && pf.pq[0].Key+slack <= bound &&
		!(pf.label(a) <= pf.frontier && pf.label(b) <= pf.frontier) {
		cur := pf.pq.Pop()
		if cur.Key > pf.dist[cur.Val] {
			continue // stale entry
		}
		pf.frontier = cur.Key
		pf.settles++
		for _, he := range pf.g.adj[cur.Val] {
			pf.relax(he.to, cur.Key+he.length, cur.Val)
		}
	}
}

// Settled returns the number of nodes the current search has settled.
func (pf *PathFinder) Settled() int { return pf.settles }

// ShortestPath returns the network distance between two nodes and the node
// sequence of one shortest path. ok is false when to is unreachable from
// from. The returned path slice is owned by the caller.
func (pf *PathFinder) ShortestPath(from, to NodeID) (float64, []NodeID, bool) {
	if from == to {
		return 0, []NodeID{from}, true
	}
	pf.reset()
	pf.relax(from, 0, -1)
	pf.settle(to, to, 0, math.Inf(1))
	if pf.label(to) > pf.frontier {
		return math.Inf(1), nil, false
	}
	hops := 0
	for at := to; at != -1; at = pf.prev[at] {
		hops++
	}
	path := make([]NodeID, hops)
	for at := to; at != -1; at = pf.prev[at] {
		hops--
		path[hops] = at
	}
	return pf.dist[to], path, true
}

// Expand starts a network expansion from the arbitrary planar point q: q is
// snapped onto its nearest road segment once and the search is seeded at that
// segment's two endpoints. Dist then prices points against it until the next
// Expand or ShortestPath; on a graph without edges nothing is reachable.
func (pf *PathFinder) Expand(q geom.Point) {
	pf.reset()
	var ok bool
	if pf.src, ok = pf.g.Snap(q); ok {
		e := pf.src.Edge
		pf.relax(e.From, pf.src.SnapDist+pf.src.T*e.Length, -1)
		pf.relax(e.To, pf.src.SnapDist+(1-pf.src.T)*e.Length, -1)
	}
}

// Dist returns the network distance from the expansion's query point to p,
// provided it is at most bound (pass +Inf for the plain distance): p is
// snapped onto its nearest road segment, the search advances until that
// segment's endpoints are settled or lie beyond the bound, and the shortest
// way between the two snapped positions (travel along the partial snap edges
// included) plus the two snap offsets — the straight-line legs from each
// point to the network — is the answer. ok is false when p is unreachable or
// farther than bound; successive calls share one search, so pricing the
// candidates of one query settles each node at most once.
//
// Including the snap offsets preserves the Euclidean lower-bound property
// ED(p,q) <= ND(p,q) for arbitrary points (§3.4): on-network travel is at
// least the chord of every edge, and the off-network legs complete a path
// whose total length dominates the straight line by the triangle inequality.
// IER and SNNN terminate correctly only because of this property.
func (pf *PathFinder) Dist(p geom.Point, bound float64) (float64, bool) {
	sp, ok := pf.g.Snap(p)
	if !ok { // no edges: the query point did not snap either
		return math.Inf(1), false
	}
	e := sp.Edge
	pf.settle(e.From, e.To, sp.SnapDist, bound)
	// A label still tentative here exceeds bound - SnapDist, and so does
	// every way through it: only ways within the bound can win the minimum.
	best := math.Min(pf.label(e.From)+sp.T*e.Length, pf.label(e.To)+(1-sp.T)*e.Length)
	if e == pf.src.Edge {
		// Same edge: direct travel along it is a candidate, but a detour
		// through the rest of the network could in principle be shorter.
		best = math.Min(best, pf.src.SnapDist+math.Abs(sp.T-pf.src.T)*e.Length)
	}
	nd := best + sp.SnapDist
	return nd, nd <= bound && !math.IsInf(nd, 1)
}

// NetworkDistance returns the network distance between two arbitrary planar
// points (see Dist). ok is false when the graph has no edges or the snapped
// positions lie in disconnected components.
func (pf *PathFinder) NetworkDistance(p, q geom.Point) (float64, bool) {
	pf.Expand(p)
	return pf.Dist(q, math.Inf(1))
}
