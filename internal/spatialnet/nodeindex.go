package spatialnet

import (
	"math"

	"repro/internal/geom"
	"repro/internal/grid"
)

// BuildNodeIndex constructs the spatial index NearestNodeIndexed and Snap
// search: a grid.Index over the node locations. Both build it on first use,
// so call it once after the graph is fully built and before sharing the
// graph across goroutines.
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

// scanRings visits the nodes in square rings of index cells around p's cell,
// innermost ring first, row-major within a ring. Before each ring it asks
// done with the clearance already scanned: every unvisited node is at least
// that far from p (an outside p is clamped to the border cell nearest it,
// which only widens the margin).
func (g *Graph) scanRings(p geom.Point, visit func(NodeID), done func(clear float64) bool) {
	if g.nodeIdx == nil {
		g.BuildNodeIndex()
	}
	ng := g.nodeIdx
	if ng == nil {
		return // no nodes
	}
	nx, ny := ng.NX(), ng.NY()
	c := int(ng.CellIndex(p))
	cx, cy := c%nx, c/nx
	for ring := 0; ring <= max(nx, ny); ring++ {
		if done(float64(ring-1) * ng.Cell()) {
			return
		}
		for dy := -ring; dy <= ring; dy++ {
			step := 1 // the ring's top and bottom rows in full,
			if dy != -ring && dy != ring {
				step = 2 * ring // the two end cells of the rows between
			}
			for dx := -ring; dx <= ring; dx += step {
				x, y := cx+dx, cy+dy
				if x < 0 || x >= nx || y < 0 || y >= ny {
					continue
				}
				for _, id := range ng.Row(y, x, x) {
					visit(NodeID(id))
				}
			}
		}
	}
}

// NearestNodeIndexed returns the node closest to p, expanding rings of index
// cells until a hit is certain. ok is false for an empty graph.
func (g *Graph) NearestNodeIndexed(p geom.Point) (NodeID, bool) {
	best, bestD := NodeID(-1), math.Inf(1)
	g.scanRings(p, func(id NodeID) {
		if d := p.Dist2(g.locs[id]); d < bestD {
			best, bestD = id, d
		}
	}, func(clear float64) bool {
		return best >= 0 && clear > math.Sqrt(bestD)
	})
	return best, best >= 0
}

// SnapResult locates a point on the road network: the nearest edge (From <
// To), the parameter t in [0,1] along it from From to To, the snapped
// location, and the Euclidean snap distance.
type SnapResult struct {
	Edge     Edge
	T        float64
	Loc      geom.Point
	SnapDist float64
}

// Snap projects p onto the nearest road segment. ok is false for a graph
// without edges. The search is exact: the closest point of an edge is within
// half the edge's chord of one of its endpoints, so once the rings scanned
// clear the best distance so far plus half the longest chord, every edge not
// yet examined — both its endpoints unvisited — is farther than the best.
// Among equally near edges the one a scan of the adjacency lists meets first
// wins, whatever the index geometry.
func (g *Graph) Snap(p geom.Point) (SnapResult, bool) {
	best := SnapResult{SnapDist: math.Inf(1)}
	found := false
	g.scanRings(p, func(id NodeID) {
		for _, he := range g.adj[id] {
			from, to := id, he.to
			if from > to {
				from, to = to, from
			}
			c, t := geom.SegmentClosest(p, g.locs[from], g.locs[to])
			d := p.Dist(c)
			if d > best.SnapDist {
				continue
			}
			e := Edge{From: from, To: to, Length: he.length, Class: he.class}
			if d < best.SnapDist || g.scansBefore(e, best.Edge) {
				best = SnapResult{Edge: e, T: t, Loc: c, SnapDist: d}
				found = true
			}
		}
	}, func(clear float64) bool {
		return found && clear > best.SnapDist+g.maxChord/2
	})
	return best, found
}

// scansBefore reports whether a walk over the adjacency lists in node order
// reaches edge a (From < To) before edge b.
func (g *Graph) scansBefore(a, b Edge) bool {
	if a.From != b.From {
		return a.From < b.From
	}
	for _, he := range g.adj[a.From] {
		switch (Edge{From: a.From, To: he.to, Length: he.length, Class: he.class}) {
		case a:
			return a != b
		case b:
			return false
		}
	}
	return false
}
