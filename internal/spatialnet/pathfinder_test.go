package spatialnet

import (
	"math"
	"slices"
	"testing"

	"repro/internal/geom"
)

// The route planner must return the path — not merely the length — that
// Dijkstra on container/heap returns: among equally short routes (a grid has
// many) the winner is decided by the heap's pop order among equal distances,
// and every road-mode figure is a function of the routes hosts take.
func TestPathFinderMatchesHeapReference(t *testing.T) {
	g, err := GenerateGrid(GridConfig{Width: 2000, Height: 2000, Spacing: 100,
		SecondaryEvery: 3, HighwayEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	pf := NewPathFinder(g)
	rng := newTestRand(12)
	for trial := 0; trial < 10000; trial++ {
		from := NodeID(rng.Intn(g.NumNodes()))
		to := NodeID(rng.Intn(g.NumNodes()))
		d1, p1, ok1 := refShortestPath(g, from, to)
		d2, p2, ok2 := pf.ShortestPath(from, to)
		if ok1 != ok2 || d1 != d2 || !slices.Equal(p1, p2) {
			t.Fatalf("%d->%d: reference %v %v %v, PathFinder %v %v %v", from, to, d1, p1, ok1, d2, p2, ok2)
		}
	}
}

func TestPathFinderDisconnected(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(geom.Pt(0, 0))
	b := g.AddNode(geom.Pt(1, 0))
	c := g.AddNode(geom.Pt(9, 9))
	if err := g.AddEdge(a, b, ClassRural); err != nil {
		t.Fatal(err)
	}
	pf := NewPathFinder(g)
	if _, _, ok := pf.ShortestPath(a, c); ok {
		t.Error("unreachable target reported reachable")
	}
	// Reuse after a failed query must still work.
	d, _, ok := pf.ShortestPath(a, b)
	if !ok || d != 1 {
		t.Errorf("reuse failed: %v %v", d, ok)
	}
}

func TestNearestNodeIndexedMatchesLinear(t *testing.T) {
	g, err := GenerateGrid(GridConfig{Width: 2000, Height: 1500, Spacing: 100,
		SecondaryEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	g.BuildNodeIndex()
	rng := newTestRand(21)
	for trial := 0; trial < 1000; trial++ { // in and up to 300 m out of bounds
		p := geom.Pt(rng.Float64()*2600-300, rng.Float64()*2100-300)
		want, ok1 := g.NearestNode(p)
		got, ok2 := g.NearestNodeIndexed(p)
		if ok1 != ok2 {
			t.Fatal("ok mismatch")
		}
		// Distances must agree (IDs may differ on exact ties).
		if math.Abs(p.Dist(g.Loc(want))-p.Dist(g.Loc(got))) > 1e-9 {
			t.Fatalf("nearest mismatch at %v: linear %v (%v), indexed %v (%v)",
				p, want, p.Dist(g.Loc(want)), got, p.Dist(g.Loc(got)))
		}
	}
}

// TestNodeIndexNoDeadRim is the regression test for the trunc+1 sizing the
// node index had before it moved onto grid.Geom: when the node MBR is an
// exact multiple of the cell, int(w/cell)+1 allocated an extra row and
// column that held nothing but the nodes sitting exactly on the far edges.
// 16 nodes over an 8x8 MBR give cell = 2*sqrt(64/16) = 4, so the table must
// be 2x2 with the far-edge nodes clamped into real cells, and lookups near
// and beyond those edges must still agree with the linear scan.
func TestNodeIndexNoDeadRim(t *testing.T) {
	g := NewGraph()
	for _, y := range []float64{0, 2, 6, 8} {
		for _, x := range []float64{0, 2, 6, 8} {
			g.AddNode(geom.Pt(x, y))
		}
	}
	g.BuildNodeIndex()
	ix := g.nodeIdx
	if ix.NX() != 2 || ix.NY() != 2 {
		t.Fatalf("aligned 8x8 MBR at cell %g: %dx%d table, want 2x2", ix.Cell(), ix.NX(), ix.NY())
	}
	for c := 0; c < ix.NumCells(); c++ {
		if n := ix.Start[c+1] - ix.Start[c]; n != 4 {
			t.Errorf("cell %d holds %d nodes, want 4", c, n)
		}
	}
	rng := newTestRand(5)
	for trial := 0; trial < 1000; trial++ {
		p := geom.Pt(rng.Float64()*12-2, rng.Float64()*12-2)
		want, _ := g.NearestNode(p)
		got, ok := g.NearestNodeIndexed(p)
		if !ok || math.Abs(p.Dist(g.Loc(want))-p.Dist(g.Loc(got))) > 1e-12 {
			t.Fatalf("nearest mismatch at %v: linear %v, indexed %v", p, want, got)
		}
	}
}

func TestNearestNodeIndexedBuildsIndexOnDemand(t *testing.T) {
	g := lineGraph(5)
	id, ok := g.NearestNodeIndexed(geom.Pt(3.2, 1))
	if !ok || id != 3 {
		t.Errorf("nearest = %d ok=%v", id, ok)
	}
	// A node added later drops the index; the next lookup sees the node.
	far := g.AddNode(geom.Pt(50, 50))
	if id, ok := g.NearestNodeIndexed(geom.Pt(49, 49)); !ok || id != far {
		t.Errorf("nearest after AddNode = %d ok=%v, want %d", id, ok, far)
	}
	if _, ok := NewGraph().NearestNodeIndexed(geom.Pt(0, 0)); ok {
		t.Error("NearestNodeIndexed on empty graph should fail")
	}
}
