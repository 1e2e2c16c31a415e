package spatialnet

// oracle_test.go keeps the forms the production code replaced, as referees:
// the every-node and every-edge scans behind NearestNodeIndexed and Snap, a
// container/heap Dijkstra (the route planner's tie order is defined by that
// package's sift order), the point-to-point network distance with one search
// per call, Algorithm 2 as printed (one fetch and one search per candidate —
// also the baseline of BenchmarkSNNN), and FromSegments over all pairs. INE,
// the independent network-expansion referee, is in ine_test.go.

import (
	"container/heap"
	"math"

	"repro/internal/core"
	"repro/internal/geom"
)

// NearestNode returns the node closest to p by scanning every node.
func (g *Graph) NearestNode(p geom.Point) (NodeID, bool) {
	best, bestD := NodeID(-1), math.Inf(1)
	for i, loc := range g.locs {
		if d := p.Dist2(loc); d < bestD {
			best, bestD = NodeID(i), d
		}
	}
	return best, best >= 0
}

// snapLinear projects p onto the nearest road segment by scanning every edge.
func (g *Graph) snapLinear(p geom.Point) (SnapResult, bool) {
	best := SnapResult{SnapDist: math.Inf(1)}
	found := false
	for from, hes := range g.adj {
		for _, he := range hes {
			if NodeID(from) > he.to {
				continue
			}
			c, t := geom.SegmentClosest(p, g.locs[from], g.locs[he.to])
			if d := p.Dist(c); d < best.SnapDist {
				best = SnapResult{
					Edge:     Edge{From: NodeID(from), To: he.to, Length: he.length, Class: he.class},
					T:        t,
					Loc:      c,
					SnapDist: d,
				}
				found = true
			}
		}
	}
	return best, found
}

type distQueue []nodeDist

func (q distQueue) Len() int           { return len(q) }
func (q distQueue) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q distQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *distQueue) Push(x any)        { *q = append(*q, x.(nodeDist)) }
func (q *distQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// refShortestPath is Dijkstra on container/heap, stopped when to is popped:
// the route planner as it was before PathFinder got its typed heap.
func refShortestPath(g *Graph, from, to NodeID) (dist float64, path []NodeID, ok bool) {
	if from == to {
		return 0, []NodeID{from}, true
	}
	n := len(g.locs)
	distTo := make([]float64, n)
	prev := make([]NodeID, n)
	for i := range distTo {
		distTo[i] = math.Inf(1)
		prev[i] = -1
	}
	distTo[from] = 0
	pq := distQueue{{id: from, dist: 0}}
	for pq.Len() > 0 {
		cur := heap.Pop(&pq).(nodeDist)
		if cur.dist > distTo[cur.id] {
			continue // stale entry
		}
		if cur.id == to {
			break
		}
		for _, he := range g.adj[cur.id] {
			nd := cur.dist + he.length
			if nd < distTo[he.to] {
				distTo[he.to] = nd
				prev[he.to] = cur.id
				heap.Push(&pq, nodeDist{id: he.to, dist: nd})
			}
		}
	}
	if math.IsInf(distTo[to], 1) {
		return math.Inf(1), nil, false
	}
	for at := to; at != -1; at = prev[at] {
		path = append(path, at)
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return distTo[to], path, true
}

// refNetworkDistance is the per-call network distance: both points snapped by
// the every-edge scan, one Dijkstra from p's snap edge until q's is settled.
func refNetworkDistance(g *Graph, p, q geom.Point) (float64, bool) {
	sp, okP := g.snapLinear(p)
	sq, okQ := g.snapLinear(q)
	if !okP || !okQ {
		return math.Inf(1), false
	}
	direct := math.Inf(1)
	if sp.Edge == sq.Edge {
		direct = math.Abs(sp.T-sq.T) * sp.Edge.Length
	}
	distTo := make([]float64, len(g.locs))
	for i := range distTo {
		distTo[i] = math.Inf(1)
	}
	distTo[sp.Edge.From] = sp.T * sp.Edge.Length
	distTo[sp.Edge.To] = (1 - sp.T) * sp.Edge.Length
	pq := distQueue{
		{id: sp.Edge.From, dist: distTo[sp.Edge.From]},
		{id: sp.Edge.To, dist: distTo[sp.Edge.To]},
	}
	heap.Init(&pq)
	for pending := 2; pq.Len() > 0 && pending > 0; {
		cur := heap.Pop(&pq).(nodeDist)
		if cur.dist > distTo[cur.id] {
			continue
		}
		if cur.id == sq.Edge.From || cur.id == sq.Edge.To {
			pending--
		}
		for _, he := range g.adj[cur.id] {
			if nd := cur.dist + he.length; nd < distTo[he.to] {
				distTo[he.to] = nd
				heap.Push(&pq, nodeDist{id: he.to, dist: nd})
			}
		}
	}
	best := math.Min(
		distTo[sq.Edge.From]+sq.T*sq.Edge.Length,
		distTo[sq.Edge.To]+(1-sq.T)*sq.Edge.Length,
	)
	best = math.Min(best, direct)
	if math.IsInf(best, 1) {
		return best, false
	}
	return best + sp.SnapDist + sq.SnapDist, true
}

// snnnPerCandidate is Algorithm 2 as printed: SENN(Q, k+i) — a whole fetch —
// for every extra candidate, and a point-to-point search for every price.
func snnnPerCandidate(g *Graph, q geom.Point, k int, fetch FetchFunc) []NetworkResult {
	var results []NetworkResult
	price := func(poi core.POI) {
		if d, ok := refNetworkDistance(g, q, poi.Loc); ok {
			results = insertByND(results, NetworkResult{POI: poi, ED: q.Dist(poi.Loc), ND: d}, k)
		}
	}
	initial := fetch(k)
	for _, poi := range initial {
		price(poi)
	}
	if len(initial) < k {
		return results
	}
	for i := 1; ; i++ {
		batch := fetch(k + i)
		if len(batch) < k+i {
			break // data set exhausted
		}
		next := batch[len(batch)-1]
		if len(results) >= k && q.Dist(next.Loc) > results[k-1].ND {
			break // Euclidean lower bound: no remaining POI can improve
		}
		price(next)
	}
	return results
}

// fromSegmentsAllPairs is FromSegments with every pair of segments tested.
func fromSegmentsAllPairs(segs []Segment) (*Graph, error) {
	splits := make([][]float64, len(segs))
	for i := range segs {
		for j := i + 1; j < len(segs); j++ {
			cut(segs, splits, i, j)
		}
	}
	return assemble(segs, splits)
}
