// Package spatialnet provides the spatial-network substrate of §3.4: a road
// graph model with per-class speed limits, Dijkstra shortest paths, snapping
// of arbitrary points onto the network, a synthetic TIGER/LINE-style road
// network generator (including over-pass handling), and the network-distance
// nearest neighbor algorithms — IER (Incremental Euclidean Restriction,
// Papadias et al. VLDB 2003) and the paper's sharing-based SNNN
// (Algorithm 2).
package spatialnet

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/grid"
)

// NodeID identifies a graph node. The modeling graph of the paper contains
// network junctions, segment endpoints, and auxiliary points; all three are
// plain nodes here.
type NodeID int32

// RoadClass categorizes a road segment, following the TIGER/LINE class
// buckets the paper uses; the class determines the speed limit mobile hosts
// obey while traveling the segment.
type RoadClass int

const (
	// ClassHighway — primary highways.
	ClassHighway RoadClass = iota
	// ClassSecondary — secondary and connecting roads.
	ClassSecondary
	// ClassRural — rural and local roads.
	ClassRural
)

// String implements fmt.Stringer.
func (c RoadClass) String() string {
	switch c {
	case ClassHighway:
		return "highway"
	case ClassSecondary:
		return "secondary"
	case ClassRural:
		return "rural"
	default:
		return "unknown"
	}
}

// SpeedLimit returns the class speed limit in m/s (65, 45 and 30 mph).
func (c RoadClass) SpeedLimit() float64 {
	const mph = 0.44704
	switch c {
	case ClassHighway:
		return 65 * mph
	case ClassSecondary:
		return 45 * mph
	default:
		return 30 * mph
	}
}

// halfEdge is one direction of an undirected road segment.
type halfEdge struct {
	to     NodeID
	length float64
	class  RoadClass
}

// Edge describes an undirected road segment between two nodes.
type Edge struct {
	From, To NodeID
	Length   float64
	Class    RoadClass
}

// Graph is an undirected road network. Nodes carry planar locations; edges
// carry lengths (usually the Euclidean distance between the endpoints, but
// longer values model curved roads) and road classes.
type Graph struct {
	locs    []geom.Point
	adj     [][]halfEdge
	edges   int
	nodeIdx *grid.Index // optional, built by BuildNodeIndex
}

// NewGraph returns an empty graph.
func NewGraph() *Graph { return &Graph{} }

// AddNode appends a node at p and returns its ID.
func (g *Graph) AddNode(p geom.Point) NodeID {
	g.locs = append(g.locs, p)
	g.adj = append(g.adj, nil)
	return NodeID(len(g.locs) - 1)
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.locs) }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return g.edges }

// Loc returns the location of node id.
func (g *Graph) Loc(id NodeID) geom.Point { return g.locs[id] }

// AddEdge connects a and b with an undirected segment of the given class.
// The length is the Euclidean distance between the endpoints. Self-loops are
// rejected.
func (g *Graph) AddEdge(a, b NodeID, class RoadClass) error {
	if int(a) >= len(g.locs) || int(b) >= len(g.locs) || a < 0 || b < 0 {
		return fmt.Errorf("spatialnet: edge (%d,%d) references missing node", a, b)
	}
	return g.AddEdgeLength(a, b, g.locs[a].Dist(g.locs[b]), class)
}

// AddEdgeLength connects a and b with an explicit length, which must be at
// least the Euclidean distance between the endpoints — the Euclidean
// lower-bound property (§3.4) that IER depends on is enforced here.
func (g *Graph) AddEdgeLength(a, b NodeID, length float64, class RoadClass) error {
	if a == b {
		return fmt.Errorf("spatialnet: self-loop at node %d", a)
	}
	if int(a) >= len(g.locs) || int(b) >= len(g.locs) || a < 0 || b < 0 {
		return fmt.Errorf("spatialnet: edge (%d,%d) references missing node", a, b)
	}
	if ed := g.locs[a].Dist(g.locs[b]); length < ed-geom.Eps {
		return fmt.Errorf("spatialnet: edge length %v below Euclidean distance %v", length, ed)
	}
	g.adj[a] = append(g.adj[a], halfEdge{to: b, length: length, class: class})
	g.adj[b] = append(g.adj[b], halfEdge{to: a, length: length, class: class})
	g.edges++
	return nil
}

// Neighbors invokes fn for every edge leaving id.
func (g *Graph) Neighbors(id NodeID, fn func(to NodeID, length float64, class RoadClass)) {
	for _, he := range g.adj[id] {
		fn(he.to, he.length, he.class)
	}
}

// Degree returns the number of edges incident to id.
func (g *Graph) Degree(id NodeID) int { return len(g.adj[id]) }

// Edges returns all undirected edges (each reported once, From < To).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.edges)
	for from, hes := range g.adj {
		for _, he := range hes {
			if NodeID(from) < he.to {
				out = append(out, Edge{From: NodeID(from), To: he.to, Length: he.length, Class: he.class})
			}
		}
	}
	return out
}

// Bounds returns the MBR of all node locations.
func (g *Graph) Bounds() geom.Rect {
	r := geom.EmptyRect()
	for _, p := range g.locs {
		r = r.Union(geom.RectFromPoint(p))
	}
	return r
}

// NearestNode returns the node closest to p. ok is false for an empty graph.
func (g *Graph) NearestNode(p geom.Point) (NodeID, bool) {
	best, bestD := NodeID(-1), math.Inf(1)
	for i, loc := range g.locs {
		if d := p.Dist2(loc); d < bestD {
			best, bestD = NodeID(i), d
		}
	}
	return best, best >= 0
}

// SnapResult locates a point on the road network: the nearest edge, the
// parameter t in [0,1] along it from From to To, the snapped location, and
// the Euclidean snap distance.
type SnapResult struct {
	Edge     Edge
	T        float64
	Loc      geom.Point
	SnapDist float64
}

// Snap projects p onto the nearest road segment. ok is false for a graph
// without edges.
func (g *Graph) Snap(p geom.Point) (SnapResult, bool) {
	best := SnapResult{SnapDist: math.Inf(1)}
	found := false
	for from, hes := range g.adj {
		for _, he := range hes {
			if NodeID(from) > he.to {
				continue
			}
			a, b := g.locs[from], g.locs[he.to]
			c, t := geom.SegmentClosest(p, a, b)
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
