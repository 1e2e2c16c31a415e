package spatialnet

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// lineGraph builds a path of n nodes spaced 1 m apart on the x axis.
func lineGraph(n int) *Graph {
	g := NewGraph()
	for i := 0; i < n; i++ {
		g.AddNode(geom.Pt(float64(i), 0))
	}
	for i := 0; i < n-1; i++ {
		if err := g.AddEdge(NodeID(i), NodeID(i+1), ClassRural); err != nil {
			panic(err)
		}
	}
	return g
}

func TestRoadClassProperties(t *testing.T) {
	if ClassHighway.SpeedLimit() <= ClassSecondary.SpeedLimit() ||
		ClassSecondary.SpeedLimit() <= ClassRural.SpeedLimit() {
		t.Error("speed limits must decrease from highway to rural")
	}
}

func TestGraphBasics(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(geom.Pt(0, 0))
	b := g.AddNode(geom.Pt(3, 4))
	if g.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d", g.NumNodes())
	}
	if err := g.AddEdge(a, b, ClassSecondary); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d", g.NumEdges())
	}
	if len(g.adj[a]) != 1 || len(g.adj[b]) != 1 {
		t.Error("degrees wrong")
	}
	edges := g.Edges()
	if len(edges) != 1 || edges[0].Length != 5 || edges[0].Class != ClassSecondary {
		t.Errorf("Edges = %v", edges)
	}
	// Self-loop and bad refs rejected.
	if err := g.AddEdge(a, a, ClassRural); err == nil {
		t.Error("self-loop accepted")
	}
	if err := g.AddEdge(a, 99, ClassRural); err == nil {
		t.Error("dangling edge accepted")
	}
	// Edge shorter than the chord violates the Euclidean lower bound.
	if err := g.AddEdgeLength(a, b, 4.9, ClassRural); err == nil {
		t.Error("sub-Euclidean edge length accepted")
	}
	if err := g.AddEdgeLength(a, b, 7.5, ClassRural); err != nil {
		t.Errorf("curved edge rejected: %v", err)
	}
}

func TestNearestNodeAndSnap(t *testing.T) {
	g := lineGraph(5)
	id, ok := g.NearestNode(geom.Pt(2.4, 1))
	if !ok || id != 2 {
		t.Errorf("NearestNode = %d ok=%v, want 2", id, ok)
	}
	snap, ok := g.Snap(geom.Pt(1.5, 2))
	if !ok {
		t.Fatal("snap failed")
	}
	if !snap.Loc.Eq(geom.Pt(1.5, 0)) || math.Abs(snap.SnapDist-2) > 1e-12 {
		t.Errorf("snap = %+v", snap)
	}
	if snap.Edge.From != 1 || snap.Edge.To != 2 || math.Abs(snap.T-0.5) > 1e-12 {
		t.Errorf("snap edge = %+v", snap)
	}
	empty := NewGraph()
	if _, ok := empty.NearestNode(geom.Pt(0, 0)); ok {
		t.Error("NearestNode on empty graph should fail")
	}
	if _, ok := empty.Snap(geom.Pt(0, 0)); ok {
		t.Error("Snap on empty graph should fail")
	}
}

func TestShortestPathLine(t *testing.T) {
	g := lineGraph(10)
	pf := NewPathFinder(g)
	d, path, ok := pf.ShortestPath(0, 9)
	if !ok || math.Abs(d-9) > 1e-12 {
		t.Fatalf("dist = %v ok=%v", d, ok)
	}
	if len(path) != 10 || path[0] != 0 || path[9] != 9 {
		t.Errorf("path = %v", path)
	}
	d, path, ok = pf.ShortestPath(4, 4)
	if !ok || d != 0 || len(path) != 1 {
		t.Errorf("self path = %v %v %v", d, path, ok)
	}
}

func TestShortestPathPicksShorterRoute(t *testing.T) {
	// Triangle with a long direct edge and a shorter two-hop route.
	g := NewGraph()
	a := g.AddNode(geom.Pt(0, 0))
	b := g.AddNode(geom.Pt(10, 0))
	c := g.AddNode(geom.Pt(5, 1))
	if err := g.AddEdgeLength(a, b, 20, ClassRural); err != nil { // curved long road
		t.Fatal(err)
	}
	if err := g.AddEdge(a, c, ClassRural); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(c, b, ClassRural); err != nil {
		t.Fatal(err)
	}
	want := geom.Pt(0, 0).Dist(geom.Pt(5, 1)) * 2
	d, path, ok := NewPathFinder(g).ShortestPath(a, b)
	if !ok || math.Abs(d-want) > 1e-9 {
		t.Fatalf("dist = %v, want %v", d, want)
	}
	if len(path) != 3 || path[1] != c {
		t.Errorf("path = %v, want through %d", path, c)
	}
}

func TestShortestPathDisconnected(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(geom.Pt(0, 0))
	b := g.AddNode(geom.Pt(1, 0))
	c := g.AddNode(geom.Pt(100, 100))
	d := g.AddNode(geom.Pt(101, 100))
	if err := g.AddEdge(a, b, ClassRural); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(c, d, ClassRural); err != nil {
		t.Fatal(err)
	}
	pf := NewPathFinder(g)
	if _, _, ok := pf.ShortestPath(a, c); ok {
		t.Error("path across components should fail")
	}
	if dist, _, ok := pf.ShortestPath(a, b); !ok || dist != 1 {
		t.Errorf("a->b = %v ok=%v after a failed search", dist, ok)
	}
	if _, ok := pf.NetworkDistance(geom.Pt(0, 0), geom.Pt(100, 100)); ok {
		t.Error("network distance across components should fail")
	}
}

// Dijkstra must agree with Floyd–Warshall on random small graphs.
func TestDijkstraMatchesFloydWarshall(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(12)
		g := NewGraph()
		locs := make([]geom.Point, n)
		for i := 0; i < n; i++ {
			locs[i] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
			g.AddNode(locs[i])
		}
		// Random edges with random (valid) lengths.
		dist := make([][]float64, n)
		for i := range dist {
			dist[i] = make([]float64, n)
			for j := range dist[i] {
				if i != j {
					dist[i][j] = math.Inf(1)
				}
			}
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.4 {
					length := locs[i].Dist(locs[j]) * (1 + rng.Float64())
					if err := g.AddEdgeLength(NodeID(i), NodeID(j), length, ClassRural); err != nil {
						t.Fatal(err)
					}
					if length < dist[i][j] {
						dist[i][j], dist[j][i] = length, length
					}
				}
			}
		}
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if d := dist[i][k] + dist[k][j]; d < dist[i][j] {
						dist[i][j] = d
					}
				}
			}
		}
		pf := NewPathFinder(g)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := dist[i][j]
				got, _, ok := pf.ShortestPath(NodeID(i), NodeID(j))
				if math.IsInf(want, 1) == ok {
					t.Fatalf("trial %d: reachability mismatch %d->%d", trial, i, j)
				}
				if ok && math.Abs(got-want) > 1e-9 {
					t.Fatalf("trial %d: dist %d->%d = %v, want %v", trial, i, j, got, want)
				}
			}
		}
	}
}

// The expansion is bounded: pricing a point beyond the bound settles the
// nodes within it and no more, and a later, looser bound resumes the same
// search rather than starting over.
func TestSettleStopsAtBound(t *testing.T) {
	g := lineGraph(100)
	pf := NewPathFinder(g)
	pf.Expand(geom.Pt(0, 0))
	if d, ok := pf.Dist(geom.Pt(50, 0), 10); ok {
		t.Errorf("point at 50 priced %v under bound 10", d)
	}
	if n := pf.Settled(); n < 10 || n > 12 {
		t.Errorf("bound 10 settled %d nodes, want the ~11 within it", n)
	}
	if !math.IsInf(pf.label(99), 1) {
		t.Errorf("bound did not stop the search: node 99 labelled %v", pf.label(99))
	}
	for i := 0; i <= 10; i++ { // everything within the bound is exact
		if d, ok := pf.Dist(geom.Pt(float64(i), 0), 10); !ok || math.Abs(d-float64(i)) > 1e-12 {
			t.Errorf("dist to %d = %v ok=%v", i, d, ok)
		}
	}
	before := pf.Settled()
	if d, ok := pf.Dist(geom.Pt(50, 0), math.Inf(1)); !ok || math.Abs(d-50) > 1e-12 {
		t.Errorf("dist to 50 = %v ok=%v", d, ok)
	}
	if n := pf.Settled(); n <= before || n > 52 {
		t.Errorf("resumed search settled %d nodes in total (had %d), want ~51", n, before)
	}
}

func TestNetworkDistance(t *testing.T) {
	// Unit square loop: nodes at the corners.
	g := NewGraph()
	a := g.AddNode(geom.Pt(0, 0))
	b := g.AddNode(geom.Pt(10, 0))
	c := g.AddNode(geom.Pt(10, 10))
	d := g.AddNode(geom.Pt(0, 10))
	for _, e := range [][2]NodeID{{a, b}, {b, c}, {c, d}, {d, a}} {
		if err := g.AddEdge(e[0], e[1], ClassRural); err != nil {
			t.Fatal(err)
		}
	}
	tests := []struct {
		name string
		p, q geom.Point
		want float64
	}{
		{"same edge", geom.Pt(2, 0), geom.Pt(7, 0), 5},
		{"adjacent edges", geom.Pt(5, 0), geom.Pt(10, 5), 10},
		// Off-network points include their snap offsets (1 m each side).
		{"opposite edges short way", geom.Pt(5, -1), geom.Pt(5, 11), 22},
		{"corner to corner", geom.Pt(0, 0), geom.Pt(10, 10), 20},
		// Snap offsets of 3 m on each side plus 20 m along the loop.
		{"off-network snap", geom.Pt(5, 3), geom.Pt(5, 7), 26},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := NewPathFinder(g).NetworkDistance(tc.p, tc.q)
			if !ok || math.Abs(got-tc.want) > 1e-9 {
				t.Errorf("NetworkDistance = %v ok=%v, want %v", got, ok, tc.want)
			}
		})
	}
}

// A point is priced only once both endpoints of its edge are settled: the
// near endpoint settles first, but the way through the far one can be shorter.
func TestDistSettlesBothEndpoints(t *testing.T) {
	g := NewGraph()
	s := g.AddNode(geom.Pt(0, 0))
	u := g.AddNode(geom.Pt(10, 0))
	v := g.AddNode(geom.Pt(110, 0))
	w := g.AddNode(geom.Pt(55, -5))
	if err := g.AddEdgeLength(u, v, 300, ClassRural); err != nil { // a winding road
		t.Fatal(err)
	}
	for _, e := range [][2]NodeID{{s, u}, {s, w}, {w, v}} {
		if err := g.AddEdge(e[0], e[1], ClassRural); err != nil {
			t.Fatal(err)
		}
	}
	// 90 % of the way along the winding road: 280 m through u, or round by
	// w to v and 30 m back.
	want := 2*geom.Pt(0, 0).Dist(geom.Pt(55, -5)) + 30
	if got, ok := NewPathFinder(g).NetworkDistance(geom.Pt(0, 0), geom.Pt(100, 0)); !ok || math.Abs(got-want) > 1e-9 {
		t.Errorf("NetworkDistance = %v ok=%v, want %v", got, ok, want)
	}
}

// Euclidean lower-bound property: ND >= ED for points on the network.
func TestEuclideanLowerBoundProperty(t *testing.T) {
	g, err := GenerateGrid(GridConfig{Width: 1000, Height: 1000, Spacing: 100,
		SecondaryEvery: 5, HighwayEvery: 0})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	pf := NewPathFinder(g)
	edges := g.Edges()
	for i := 0; i < 200; i++ {
		e1 := edges[rng.Intn(len(edges))]
		e2 := edges[rng.Intn(len(edges))]
		p := g.Loc(e1.From).Lerp(g.Loc(e1.To), rng.Float64())
		q := g.Loc(e2.From).Lerp(g.Loc(e2.To), rng.Float64())
		nd, ok := pf.NetworkDistance(p, q)
		if !ok {
			t.Fatalf("unreachable pair in connected grid")
		}
		if ed := p.Dist(q); nd < ed-1e-9 {
			t.Fatalf("ND %v < ED %v for %v -> %v", nd, ed, p, q)
		}
	}
}

// Network distance must be (approximately) symmetric.
func TestNetworkDistanceSymmetry(t *testing.T) {
	g, err := GenerateGrid(GridConfig{Width: 500, Height: 500, Spacing: 100, SecondaryEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	pf := NewPathFinder(g)
	b := g.Bounds()
	for i := 0; i < 100; i++ {
		p := geom.Pt(rng.Float64()*b.Width(), rng.Float64()*b.Height())
		q := geom.Pt(rng.Float64()*b.Width(), rng.Float64()*b.Height())
		d1, ok1 := pf.NetworkDistance(p, q)
		d2, ok2 := pf.NetworkDistance(q, p)
		if ok1 != ok2 || math.Abs(d1-d2) > 1e-9 {
			t.Fatalf("asymmetry: %v vs %v", d1, d2)
		}
	}
}
