package mobility

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/spatialnet"
)

func testGrid(t *testing.T) *spatialnet.Graph {
	t.Helper()
	g, err := spatialnet.GenerateGrid(spatialnet.GridConfig{
		Width: 1000, Height: 1000, Spacing: 100,
		SecondaryEvery: 3, HighwayEvery: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRoadNetworkStaysOnNetwork(t *testing.T) {
	g := testGrid(t)
	rng := rand.New(rand.NewSource(5))
	m := NewRoadNetworkWith(g, 0, 22.35, 5, rng, RoadNetworkOptions{})
	for i := 0; i < 3000; i++ {
		p := m.Advance(1)
		snap, ok := g.Snap(p)
		if !ok || snap.SnapDist > 1e-6 {
			t.Fatalf("step %d: host %v is %v m off the network", i, p, snap.SnapDist)
		}
	}
}

func TestRoadNetworkRespectsSpeedLimits(t *testing.T) {
	g := testGrid(t)
	rng := rand.New(rand.NewSource(6))
	target := 29.0 // ~65 mph: always capped by the segment limit
	m := NewRoadNetworkWith(g, 0, target, 0, rng, RoadNetworkOptions{})
	prev := m.Pos()
	maxLimit := spatialnet.ClassHighway.SpeedLimit()
	for i := 0; i < 3000; i++ {
		dt := 1.0
		p := m.Advance(dt)
		if d := prev.Dist(p); d > maxLimit*dt+1e-6 {
			t.Fatalf("step %d: moved %v m/s, above highway limit %v", i, d/dt, maxLimit)
		}
		prev = p
	}
}

func TestRoadNetworkSlowTargetIsCap(t *testing.T) {
	g := testGrid(t)
	rng := rand.New(rand.NewSource(7))
	target := 4.5 // 10 mph, below every class limit
	m := NewRoadNetworkWith(g, 0, target, 0, rng, RoadNetworkOptions{})
	prev := m.Pos()
	for i := 0; i < 1000; i++ {
		p := m.Advance(2)
		if d := prev.Dist(p); d > target*2+1e-6 {
			t.Fatalf("step %d: moved %v m in 2 s, target %v m/s", i, d, target)
		}
		prev = p
	}
}

func TestRoadNetworkTravels(t *testing.T) {
	g := testGrid(t)
	rng := rand.New(rand.NewSource(8))
	m := NewRoadNetworkWith(g, 0, 13.4, 0, rng, RoadNetworkOptions{})
	start := m.Pos()
	far := 0.0
	for i := 0; i < 2000; i++ {
		p := m.Advance(1)
		if d := start.Dist(p); d > far {
			far = d
		}
	}
	if far < 200 {
		t.Errorf("host wandered only %v m in 2000 s", far)
	}
}

func TestRoadNetworkIsolatedNode(t *testing.T) {
	g := spatialnet.NewGraph()
	id := g.AddNode(geom.Pt(5, 5))
	rng := rand.New(rand.NewSource(9))
	m := NewRoadNetworkWith(g, id, 10, 0, rng, RoadNetworkOptions{})
	p := m.Advance(100)
	if !p.Eq(geom.Pt(5, 5)) {
		t.Errorf("isolated host moved to %v", p)
	}
}

func TestRoadNetworkDeterminism(t *testing.T) {
	g := testGrid(t)
	run := func(seed int64) []geom.Point {
		rng := rand.New(rand.NewSource(seed))
		m := NewRoadNetworkWith(g, 3, 15, 2, rng, RoadNetworkOptions{})
		var out []geom.Point
		for i := 0; i < 500; i++ {
			out = append(out, m.Advance(1))
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if !a[i].Eq(b[i]) {
			t.Fatalf("divergence at step %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(43)
	diverged := false
	for i := range a {
		if !a[i].Eq(c[i]) {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Error("different seeds should yield different trajectories")
	}
}

func TestRoadNetworkValidation(t *testing.T) {
	g := testGrid(t)
	defer func() {
		if recover() == nil {
			t.Error("non-positive target should panic")
		}
	}()
	NewRoadNetworkWith(g, 0, -1, 0, rand.New(rand.NewSource(1)), RoadNetworkOptions{})
}

// Large dt values must be consumed fully (multi-segment, multi-destination
// progress within one Advance call). A waypoint slot draws only on arrival,
// so one call of 10^4 s must end on the same leg, at the same place, as
// 10^4 calls of 1 s; a road host must end on the network.
func TestAdvanceLargeDt(t *testing.T) {
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(50, 50))
	once := NewWaypoints(bounds, 10, 0, 0, 1)
	stepped := NewWaypoints(bounds, 10, 0, 0, 1)
	once.Seed(0, geom.Pt(0, 0), 10)
	stepped.Seed(0, geom.Pt(0, 0), 10)
	p1 := once.Advance(0, geom.Pt(0, 0), 1e4)
	if math.IsNaN(p1.X) || !bounds.Contains(p1) {
		t.Errorf("large dt produced %v", p1)
	}
	ps := geom.Pt(0, 0)
	for i := 0; i < 1e4; i++ {
		ps = stepped.Advance(0, ps, 1)
	}
	if !once.dest[0].Eq(stepped.dest[0]) || p1.Dist(ps) > 1e-6 {
		t.Errorf("one 1e4 s call ended at %v heading to %v; 1 s steps at %v heading to %v",
			p1, once.dest[0], ps, stepped.dest[0])
	}
	g := testGrid(t)
	rm := NewRoadNetworkWith(g, 0, 20, 1, rand.New(rand.NewSource(10)), RoadNetworkOptions{})
	p2 := rm.Advance(1e4)
	snap, ok := g.Snap(p2)
	if !ok || snap.SnapDist > 1e-6 {
		t.Errorf("large dt left road host off network at %v", p2)
	}
}
