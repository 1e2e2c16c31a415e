package spatialnet

import (
	"container/heap"
	"math"

	"repro/internal/geom"
	"repro/internal/grid"
)

// PathFinder runs repeated point-to-point Dijkstra searches over one graph
// without per-query allocations, using epoch-stamped scratch arrays. It is
// the route planner the mobility simulator shares across all mobile hosts.
// A PathFinder is not safe for concurrent use.
type PathFinder struct {
	g     *Graph
	dist  []float64
	prev  []NodeID
	stamp []uint32
	epoch uint32
	pq    distQueue
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
}

func (pf *PathFinder) see(id NodeID) {
	if pf.stamp[id] != pf.epoch {
		pf.stamp[id] = pf.epoch
		pf.dist[id] = math.Inf(1)
		pf.prev[id] = -1
	}
}

// ShortestPath is equivalent to Graph.ShortestPath but reuses internal
// buffers. The returned path slice is owned by the caller.
func (pf *PathFinder) ShortestPath(from, to NodeID) (float64, []NodeID, bool) {
	if from == to {
		return 0, []NodeID{from}, true
	}
	pf.reset()
	pf.see(from)
	pf.dist[from] = 0
	heap.Push(&pf.pq, nodeDist{id: from, dist: 0})
	for pf.pq.Len() > 0 {
		cur := heap.Pop(&pf.pq).(nodeDist)
		if cur.dist > pf.dist[cur.id] {
			continue
		}
		if cur.id == to {
			break
		}
		for _, he := range pf.g.adj[cur.id] {
			pf.see(he.to)
			if nd := cur.dist + he.length; nd < pf.dist[he.to] {
				pf.dist[he.to] = nd
				pf.prev[he.to] = cur.id
				heap.Push(&pf.pq, nodeDist{id: he.to, dist: nd})
			}
		}
	}
	if pf.stamp[to] != pf.epoch || math.IsInf(pf.dist[to], 1) {
		return math.Inf(1), nil, false
	}
	var path []NodeID
	for at := to; at != -1; at = pf.prev[at] {
		path = append(path, at)
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return pf.dist[to], path, true
}

// BuildNodeIndex constructs the spatial index used by NearestNodeIndexed: a
// grid.Index over the node locations. Call it once after the graph is fully
// built.
func (g *Graph) BuildNodeIndex() {
	if len(g.locs) == 0 {
		return
	}
	b := g.Bounds()
	// Aim for a handful of nodes per cell.
	area := math.Max(b.Area(), 1)
	cell := math.Max(math.Sqrt(area/float64(len(g.locs)))*2, 1e-6)
	idx := grid.NewPointIndex(b, cell, g.locs)
	g.nodeIdx = &idx
}

// NearestNodeIndexed returns the node closest to p using the grid index
// built by BuildNodeIndex, expanding rings of cells until a hit is certain.
// It falls back to the linear NearestNode when no index exists.
func (g *Graph) NearestNodeIndexed(p geom.Point) (NodeID, bool) {
	ng := g.nodeIdx
	if ng == nil {
		return g.NearestNode(p)
	}
	nx, ny := ng.NX(), ng.NY()
	c := int(ng.CellIndex(p)) // clamped: rings grow from the border cell nearest an outside p
	cx, cy := c%nx, c/nx
	best, bestD := NodeID(-1), math.Inf(1)
	maxRing := nx
	if ny > maxRing {
		maxRing = ny
	}
	for ring := 0; ring <= maxRing; ring++ {
		// Once a candidate is known, stop after the first ring that cannot
		// contain anything closer.
		if best >= 0 && float64(ring-1)*ng.Cell() > math.Sqrt(bestD) {
			break
		}
		for dy := -ring; dy <= ring; dy++ {
			for dx := -ring; dx <= ring; dx++ {
				if absInt(dx) != ring && absInt(dy) != ring {
					continue // interior cells were scanned in earlier rings
				}
				x, y := cx+dx, cy+dy
				if x < 0 || x >= nx || y < 0 || y >= ny {
					continue
				}
				for _, id := range ng.Row(y, x, x) {
					if d := p.Dist2(g.locs[id]); d < bestD {
						best, bestD = NodeID(id), d
					}
				}
			}
		}
	}
	return best, best >= 0
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
