// Package spatialnet provides the spatial-network substrate of §3.4: a road
// graph model with per-class speed limits, one Dijkstra expansion
// (PathFinder) that plans routes and prices network distances, snapping of
// arbitrary points onto the network through the node grid, a synthetic
// TIGER/LINE-style road network generator (including over-pass handling), and
// the network-distance nearest neighbor algorithms — IER (Incremental
// Euclidean Restriction, Papadias et al. VLDB 2003) and the paper's
// sharing-based SNNN (Algorithm 2), which is IER over the sharing
// infrastructure's candidate stream.
package spatialnet

import (
	"fmt"

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
	locs     []geom.Point
	adj      [][]halfEdge
	edges    int
	maxChord float64     // longest straight-line edge: how far Snap looks past its best hit
	nodeIdx  *grid.Index // built by BuildNodeIndex, dropped when a node is added
}

// NewGraph returns an empty graph.
func NewGraph() *Graph { return &Graph{} }

// AddNode appends a node at p and returns its ID.
func (g *Graph) AddNode(p geom.Point) NodeID {
	g.locs = append(g.locs, p)
	g.adj = append(g.adj, nil)
	g.nodeIdx = nil
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
	ed := g.locs[a].Dist(g.locs[b])
	if length < ed-geom.Eps {
		return fmt.Errorf("spatialnet: edge length %v below Euclidean distance %v", length, ed)
	}
	g.maxChord = max(g.maxChord, ed)
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
