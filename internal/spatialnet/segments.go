package spatialnet

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
)

// Segment is a raw road segment as found in TIGER/LINE-style street vector
// data: two endpoints and a road class.
type Segment struct {
	A, B  geom.Point
	Class RoadClass
}

// Connects reports whether two road classes joining at a planar crossing
// form a real intersection. Following the paper's observation (§4.1.2) that
// differing road classes distinguish over-passes from intersections, a
// crossing between a primary highway and a rural road is a bridge/over-pass,
// not a junction; every other combination connects.
func Connects(a, b RoadClass) bool {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	return !(lo == ClassHighway && hi == ClassRural)
}

// FromSegments integrates raw segments into a road network graph, solving
// the intersection-isolation problem of §4.1.2:
//
//   - coincident endpoints merge into a single junction node;
//   - a proper crossing between two segments whose classes connect splits
//     both segments at an auxiliary node;
//   - an endpoint of one segment touching the interior of another
//     (a T-junction) splits the host segment when the classes connect;
//   - crossings between non-connecting classes (highway over rural) create
//     no node: the segments pass over each other.
//
// Degenerate (zero-length) segments are rejected.
func FromSegments(segs []Segment) (*Graph, error) {
	for i, s := range segs {
		if s.A.Dist(s.B) <= geom.Eps {
			return nil, fmt.Errorf("spatialnet: segment %d is degenerate at %v", i, s.A)
		}
	}
	// Only segments whose bounding boxes meet can intersect, so the pairs to
	// test are found by a sweep over the boxes sorted by left edge. Each box
	// is padded by what geom.SegmentsIntersect tolerates: Eps in parameter
	// space along the segment, Eps/length across it.
	boxes := make([]geom.Rect, len(segs))
	order := make([]int, len(segs))
	for i, s := range segs {
		l := s.A.Dist(s.B)
		pad := geom.Pt(1, 1).Scale(2 * geom.Eps * (l + 1/l))
		boxes[i] = geom.NewRect(s.A, s.B)
		boxes[i].Min, boxes[i].Max = boxes[i].Min.Sub(pad), boxes[i].Max.Add(pad)
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return boxes[order[a]].Min.X < boxes[order[b]].Min.X })
	splits := make([][]float64, len(segs))
	for a, i := range order {
		for _, j := range order[a+1:] {
			if boxes[j].Min.X > boxes[i].Max.X {
				break
			}
			if boxes[i].Intersects(boxes[j]) {
				cut(segs, splits, min(i, j), max(i, j))
			}
		}
	}
	return assemble(segs, splits)
}

// tEps is the parameter distance under which two cuts of one segment, or a
// cut and an endpoint, are the same point.
const tEps = 1e-9

// cut records where segments i < j meet, when they do and their classes
// connect: the interior parameter on each goes into splits. The lower index
// always plays the first segment, so the recorded parameters do not depend
// on the order in which pairs are visited.
func cut(segs []Segment, splits [][]float64, i, j int) {
	si, sj := segs[i], segs[j]
	if !Connects(si.Class, sj.Class) {
		return
	}
	p, ok := geom.SegmentsIntersect(si.A, si.B, sj.A, sj.B)
	if !ok {
		return
	}
	interior := func(t float64) bool { return t > tEps && t < 1-tEps }
	if ti := paramOn(si, p); interior(ti) {
		splits[i] = append(splits[i], ti)
	}
	if tj := paramOn(sj, p); interior(tj) {
		splits[j] = append(splits[j], tj)
	}
}

// assemble builds the graph of segs cut at splits[i] (the interior
// parameters of segment i, in any order).
func assemble(segs []Segment, splits [][]float64) (*Graph, error) {
	g := NewGraph()
	nodeAt := make(map[[2]int64]NodeID)
	getNode := func(p geom.Point) NodeID {
		key := quantize(p)
		if id, ok := nodeAt[key]; ok {
			return id
		}
		id := g.AddNode(p)
		nodeAt[key] = id
		return id
	}

	type edgeKey struct{ a, b NodeID }
	seen := make(map[edgeKey]bool)
	for i, s := range segs {
		ts := append([]float64{0, 1}, splits[i]...)
		sort.Float64s(ts)
		prev := s.A
		prevT := 0.0
		for _, t := range ts[1:] {
			if t-prevT <= tEps {
				continue
			}
			cur := s.A.Lerp(s.B, t)
			a, b := getNode(prev), getNode(cur)
			if a != b {
				k := edgeKey{a, b}
				if a > b {
					k = edgeKey{b, a}
				}
				if !seen[k] {
					seen[k] = true
					if err := g.AddEdge(a, b, s.Class); err != nil {
						return nil, err
					}
				}
			}
			prev, prevT = cur, t
		}
	}
	return g, nil
}

// paramOn returns the parameter of point p along segment s.
func paramOn(s Segment, p geom.Point) float64 {
	d := s.B.Sub(s.A)
	len2 := d.Dot(d)
	if len2 == 0 {
		return 0
	}
	return p.Sub(s.A).Dot(d) / len2
}

// quantize maps a point to a grid cell of 1e-6 m so that floating-point
// noise in shared endpoints still merges them into one node.
func quantize(p geom.Point) [2]int64 {
	return [2]int64{int64(math.Round(p.X * 1e6)), int64(math.Round(p.Y * 1e6))}
}

// ConnectedComponents returns the node sets of the graph's connected
// components, largest first.
func (g *Graph) ConnectedComponents() [][]NodeID {
	n := len(g.locs)
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	var comps [][]NodeID
	for start := 0; start < n; start++ {
		if comp[start] != -1 {
			continue
		}
		id := len(comps)
		var members []NodeID
		stack := []NodeID{NodeID(start)}
		comp[start] = id
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			members = append(members, cur)
			for _, he := range g.adj[cur] {
				if comp[he.to] == -1 {
					comp[he.to] = id
					stack = append(stack, he.to)
				}
			}
		}
		comps = append(comps, members)
	}
	sort.Slice(comps, func(i, j int) bool { return len(comps[i]) > len(comps[j]) })
	return comps
}
