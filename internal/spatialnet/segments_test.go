package spatialnet

import (
	"math"
	"testing"

	"repro/internal/geom"
)

func TestConnects(t *testing.T) {
	tests := []struct {
		a, b RoadClass
		want bool
	}{
		{ClassRural, ClassRural, true},
		{ClassRural, ClassSecondary, true},
		{ClassSecondary, ClassSecondary, true},
		{ClassSecondary, ClassHighway, true},
		{ClassHighway, ClassHighway, true},
		{ClassHighway, ClassRural, false},
		{ClassRural, ClassHighway, false},
	}
	for _, tc := range tests {
		if got := Connects(tc.a, tc.b); got != tc.want {
			t.Errorf("Connects(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestFromSegmentsSharedEndpoints(t *testing.T) {
	// Two segments meeting at a shared endpoint: 3 nodes, 2 edges.
	g, err := FromSegments([]Segment{
		{A: geom.Pt(0, 0), B: geom.Pt(10, 0), Class: ClassRural},
		{A: geom.Pt(10, 0), B: geom.Pt(10, 10), Class: ClassRural},
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Errorf("nodes=%d edges=%d, want 3/2", g.NumNodes(), g.NumEdges())
	}
	d, _, ok := NewPathFinder(g).ShortestPath(0, 2)
	if !ok || math.Abs(d-20) > 1e-9 {
		t.Errorf("path through junction = %v ok=%v", d, ok)
	}
}

func TestFromSegmentsCrossingSameClass(t *testing.T) {
	// A plus sign of two rural roads: the crossing becomes a junction with
	// an auxiliary node, 5 nodes and 4 edges total.
	g, err := FromSegments([]Segment{
		{A: geom.Pt(-10, 0), B: geom.Pt(10, 0), Class: ClassRural},
		{A: geom.Pt(0, -10), B: geom.Pt(0, 10), Class: ClassRural},
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 5 || g.NumEdges() != 4 {
		t.Fatalf("nodes=%d edges=%d, want 5/4", g.NumNodes(), g.NumEdges())
	}
	// Travel from the west arm to the north arm turns at the junction.
	d, ok := NewPathFinder(g).NetworkDistance(geom.Pt(-10, 0), geom.Pt(0, 10))
	if !ok || math.Abs(d-20) > 1e-9 {
		t.Errorf("network distance = %v ok=%v, want 20", d, ok)
	}
}

func TestFromSegmentsOverpass(t *testing.T) {
	// A highway crossing a rural road: no junction is created (over-pass),
	// so the two roads remain disconnected.
	g, err := FromSegments([]Segment{
		{A: geom.Pt(-10, 0), B: geom.Pt(10, 0), Class: ClassHighway},
		{A: geom.Pt(0, -10), B: geom.Pt(0, 10), Class: ClassRural},
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 4 || g.NumEdges() != 2 {
		t.Fatalf("nodes=%d edges=%d, want 4/2 (no junction)", g.NumNodes(), g.NumEdges())
	}
	comps := g.ConnectedComponents()
	if len(comps) != 2 {
		t.Errorf("components = %d, want 2 (over-pass keeps roads apart)", len(comps))
	}
}

func TestFromSegmentsInterchange(t *testing.T) {
	// Highway x secondary: a proper interchange junction.
	g, err := FromSegments([]Segment{
		{A: geom.Pt(-10, 0), B: geom.Pt(10, 0), Class: ClassHighway},
		{A: geom.Pt(0, -10), B: geom.Pt(0, 10), Class: ClassSecondary},
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 5 || g.NumEdges() != 4 {
		t.Fatalf("nodes=%d edges=%d, want 5/4", g.NumNodes(), g.NumEdges())
	}
	if len(g.ConnectedComponents()) != 1 {
		t.Error("interchange should connect the roads")
	}
}

func TestFromSegmentsTJunction(t *testing.T) {
	// A rural road ending on the interior of a secondary road.
	g, err := FromSegments([]Segment{
		{A: geom.Pt(0, 0), B: geom.Pt(20, 0), Class: ClassSecondary},
		{A: geom.Pt(10, 10), B: geom.Pt(10, 0), Class: ClassRural},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The secondary road splits at (10,0): 4 nodes, 3 edges.
	if g.NumNodes() != 4 || g.NumEdges() != 3 {
		t.Fatalf("nodes=%d edges=%d, want 4/3", g.NumNodes(), g.NumEdges())
	}
	d, ok := NewPathFinder(g).NetworkDistance(geom.Pt(0, 0), geom.Pt(10, 10))
	if !ok || math.Abs(d-20) > 1e-9 {
		t.Errorf("distance through T junction = %v ok=%v", d, ok)
	}
}

func TestFromSegmentsRejectsDegenerate(t *testing.T) {
	if _, err := FromSegments([]Segment{{A: geom.Pt(1, 1), B: geom.Pt(1, 1), Class: ClassRural}}); err == nil {
		t.Error("degenerate segment accepted")
	}
}

func TestFromSegmentsDuplicateSegments(t *testing.T) {
	g, err := FromSegments([]Segment{
		{A: geom.Pt(0, 0), B: geom.Pt(10, 0), Class: ClassRural},
		{A: geom.Pt(0, 0), B: geom.Pt(10, 0), Class: ClassRural},
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Errorf("duplicate segment produced %d edges", g.NumEdges())
	}
}

func TestGenerateGridValidation(t *testing.T) {
	if _, err := GenerateGrid(GridConfig{}); err == nil {
		t.Error("zero config accepted")
	}
	if _, err := GenerateGrid(GridConfig{Width: 10, Height: 10, Spacing: 100}); err == nil {
		t.Error("oversized spacing accepted")
	}
}

func TestGenerateGridStructure(t *testing.T) {
	g, err := GenerateGrid(GridConfig{
		Width: 1000, Height: 1000, Spacing: 100,
		SecondaryEvery: 3, HighwayEvery: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() == 0 || g.NumEdges() == 0 {
		t.Fatal("empty grid")
	}
	// All three classes must be present.
	have := map[RoadClass]int{}
	for _, e := range g.Edges() {
		have[e.Class]++
	}
	for _, c := range []RoadClass{ClassRural, ClassSecondary, ClassHighway} {
		if have[c] == 0 {
			t.Errorf("no %v edges generated", c)
		}
	}
	// The network must be a single connected component: highways
	// interchange with secondary roads, which meet the rural grid.
	comps := g.ConnectedComponents()
	if len(comps) != 1 {
		t.Fatalf("grid has %d components, want 1", len(comps))
	}
	// Bounds must match the configured area.
	b := g.Bounds()
	if math.Abs(b.Width()-1000) > 1e-6 || math.Abs(b.Height()-1000) > 1e-6 {
		t.Errorf("bounds = %v", b)
	}
}

// Highways must pass over rural roads: no node of the generated grid may
// join a highway edge directly to a rural edge.
func TestGenerateGridOverpassInvariant(t *testing.T) {
	g, err := GenerateGrid(GridConfig{
		Width: 1200, Height: 1200, Spacing: 100,
		SecondaryEvery: 4, HighwayEvery: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < g.NumNodes(); id++ {
		classes := map[RoadClass]bool{}
		g.Neighbors(NodeID(id), func(_ NodeID, _ float64, c RoadClass) {
			classes[c] = true
		})
		if classes[ClassHighway] && classes[ClassRural] {
			t.Fatalf("node %d joins a highway to a rural road (over-pass violated)", id)
		}
	}
}

func TestRandomPOIsInBounds(t *testing.T) {
	g, err := GenerateGrid(GridConfig{Width: 500, Height: 500, Spacing: 100, SecondaryEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := newTestRand(42)
	pois := RandomPOIs(g, 100, rng)
	if len(pois) != 100 {
		t.Fatalf("got %d POIs", len(pois))
	}
	b := g.Bounds()
	for _, p := range pois {
		if !b.Contains(p) {
			t.Fatalf("POI %v outside bounds %v", p, b)
		}
	}
	onNet := RandomOnNetworkPOIs(g, 50, rng)
	for _, p := range onNet {
		snap, ok := g.Snap(p)
		if !ok || snap.SnapDist > 1e-9 {
			t.Fatalf("on-network POI %v is %v m off the network", p, snap.SnapDist)
		}
	}
}
