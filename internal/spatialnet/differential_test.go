package spatialnet

// differential_test.go runs the production forms against the referees of
// oracle_test.go and ine_test.go on seeded streams: several implementations,
// one input sequence, compared after every step.

import (
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
)

// differentialScene is a road network with every feature the network-kNN
// implementations must agree on: highways passing over rural roads, an
// island no road reaches, and POIs on the network, off it (inside the bounds
// and out), exactly on nodes, stacked on one another, and on the island.
func differentialScene(t *testing.T) (*Graph, []core.POI) {
	t.Helper()
	g, err := GenerateGrid(GridConfig{Width: 3000, Height: 3000, Spacing: 250,
		SecondaryEvery: 3, HighwayEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := g.AddNode(geom.Pt(3600, 400)), g.AddNode(geom.Pt(3900, 400)), g.AddNode(geom.Pt(3900, 800))
	for _, e := range [][2]NodeID{{a, b}, {b, c}} {
		if err := g.AddEdge(e[0], e[1], ClassRural); err != nil {
			t.Fatal(err)
		}
	}
	if comps := g.ConnectedComponents(); len(comps) != 2 {
		t.Fatalf("scene has %d components, want the grid and the island", len(comps))
	}
	rng := newTestRand(26)
	var locs []geom.Point
	locs = append(locs, RandomOnNetworkPOIs(g, 40, rng)...)
	for i := 0; i < 40; i++ {
		locs = append(locs, geom.Pt(rng.Float64()*3400-200, rng.Float64()*3400-200))
	}
	for i := 0; i < 10; i++ {
		locs = append(locs, g.Loc(NodeID(rng.Intn(g.NumNodes()))))
	}
	for i := 0; i < 10; i++ {
		locs = append(locs, locs[rng.Intn(len(locs))])
	}
	locs = append(locs, geom.Pt(3700, 400), geom.Pt(3900, 600), geom.Pt(3880, 790), geom.Pt(3650, 420))
	pois := make([]core.POI, len(locs))
	for i, l := range locs {
		pois[i] = core.POI{ID: int64(i), Loc: l}
	}
	return g, pois
}

// SNNN ≡ IER ≡ BruteForceNetworkKNN ≡ INE, by POI ID and network distance.
// The first three price through one PathFinder and order by (ND, ID), so they
// must agree to the bit; INE snaps by its own scan and sums in its own order,
// so it agrees within 1e-9 m and may swap POIs it cannot tell apart by that.
func TestNetworkKNNDifferential(t *testing.T) {
	g, pois := differentialScene(t)
	idx := NewPOIIndex(g, pois)
	pf := NewPathFinder(g)
	rng := newTestRand(27)
	queries := 10000
	if testing.Short() {
		queries = 1000
	}
	const tol = 1e-9
	unreachable, short, swapped := 0, 0, 0
	for trial := 0; trial < queries; trial++ {
		var q geom.Point
		switch rng.Intn(20) {
		case 0: // on a POI
			q = pois[rng.Intn(len(pois))].Loc
		case 1: // on a node
			q = g.Loc(NodeID(rng.Intn(g.NumNodes())))
		case 2: // by the island
			q = geom.Pt(3500+rng.Float64()*500, 300+rng.Float64()*600)
		default: // anywhere within 500 m of the grid, a quarter of it outside
			q = geom.Pt(rng.Float64()*4000-500, rng.Float64()*4000-500)
		}
		k := 1 + rng.Intn(8)
		if rng.Intn(10) == 0 {
			k = len(pois) + rng.Intn(3) // more than can be reached
		}

		// Candidates ascend by Euclidean distance; equidistant ones arrive in
		// a seeded order, so the (ND, ID) tie-break cannot lean on arrival.
		sorted := slices.Clone(pois)
		rng.Shuffle(len(sorted), func(i, j int) { sorted[i], sorted[j] = sorted[j], sorted[i] })
		sort.SliceStable(sorted, func(i, j int) bool { return q.Dist2(sorted[i].Loc) < q.Dist2(sorted[j].Loc) })
		i := 0
		next := func() (core.POI, bool) {
			if i == len(sorted) {
				return core.POI{}, false
			}
			i++
			return sorted[i-1], true
		}
		// An exchange returns what was asked for and whatever else it
		// certified: sometimes nothing more, sometimes a cache-full.
		fetches := 0
		fetch := func(n int) []core.POI {
			fetches++
			return sorted[:min(len(sorted), n+rng.Intn(3)*rng.Intn(12))]
		}

		all := BruteForceNetworkKNN(pf, q, len(pois), pois)
		want := all[:min(k, len(all))]
		unreachable += len(pois) - len(all)
		if len(want) < k {
			short++
		}
		if got := IER(pf, q, k, next); !slices.Equal(got, want) {
			t.Fatalf("trial %d q=%v k=%d: IER = %v, brute force %v", trial, q, k, got, want)
		}
		if got := SNNN(pf, q, k, fetch); !slices.Equal(got, want) {
			t.Fatalf("trial %d q=%v k=%d: SNNN = %v, brute force %v", trial, q, k, got, want)
		}
		if fetches > len(sorted)+1 {
			t.Fatalf("trial %d: SNNN made %d fetches for %d POIs", trial, fetches, len(sorted))
		}

		trueND := make(map[int64]float64, len(all))
		for _, r := range all {
			trueND[r.ID] = r.ND
		}
		ine := INE(g, idx, q, k)
		if len(ine) != len(want) {
			t.Fatalf("trial %d q=%v k=%d: INE returned %d, brute force %d", trial, q, k, len(ine), len(want))
		}
		seen := make(map[int64]bool, len(ine))
		for rank, r := range ine {
			nd, reachable := trueND[r.ID]
			if !reachable || seen[r.ID] || math.Abs(r.ND-nd) > tol || math.Abs(r.ND-want[rank].ND) > tol {
				t.Fatalf("trial %d q=%v k=%d rank %d: INE %+v, brute force %+v (POI %d at %v)",
					trial, q, k, rank, r, want[rank], r.ID, nd)
			}
			seen[r.ID] = true
			if r.ID != want[rank].ID {
				swapped++
			}
		}

		// The referee of the distances themselves: a search of its own per
		// POI, both ends snapped by the every-edge scan.
		if trial%25 == 0 {
			for _, r := range want {
				if nd, ok := refNetworkDistance(g, q, r.Loc); !ok || math.Abs(nd-r.ND) > tol {
					t.Fatalf("trial %d q=%v: POI %d priced %v, point-to-point search %v ok=%v", trial, q, r.ID, r.ND, nd, ok)
				}
			}
		}
	}
	t.Logf("%d queries: %d unreachable POIs skipped, %d answers shorter than k, %d ranks where INE swapped equidistant POIs",
		queries, unreachable, short, swapped)
	if unreachable == 0 || short == 0 {
		t.Error("the stream never met an unreachable POI or a k above the reachable count")
	}
	if swapped > queries/20 {
		t.Errorf("INE disagreed on the POI at %d ranks: too many to be ties", swapped)
	}
}

// Algorithm 2 as printed and SNNN return the same answers; what differs is
// the number of exchanges.
func TestSNNNMatchesAlgorithm2AsPrinted(t *testing.T) {
	g, pois := differentialScene(t)
	pf := NewPathFinder(g)
	rng := newTestRand(28)
	printed, prefixFirst := 0, 0
	for trial := 0; trial < 100; trial++ {
		q := geom.Pt(rng.Float64()*3000, rng.Float64()*3000)
		k := 1 + rng.Intn(6)
		sorted := slices.Clone(pois)
		sort.SliceStable(sorted, func(i, j int) bool { return q.Dist2(sorted[i].Loc) < q.Dist2(sorted[j].Loc) })
		want := snnnPerCandidate(g, q, k, func(n int) []core.POI { printed++; return sorted[:min(len(sorted), n)] })
		got := SNNN(pf, q, k, func(n int) []core.POI { prefixFirst++; return sorted[:min(len(sorted), max(n, 20))] })
		if len(got) != len(want) {
			t.Fatalf("trial %d: SNNN returned %d, Algorithm 2 %d", trial, len(got), len(want))
		}
		for i := range got {
			if math.Abs(got[i].ND-want[i].ND) > 1e-9 {
				t.Fatalf("trial %d rank %d: SNNN %+v, Algorithm 2 %+v", trial, i, got[i], want[i])
			}
		}
	}
	if prefixFirst > 2*100 || printed < 3*prefixFirst {
		t.Errorf("exchanges over 100 queries: Algorithm 2 as printed %d, prefix-first %d", printed, prefixFirst)
	}
}

// Snap through the node grid ≡ the every-edge scan, field for field: where
// several edges are equally near (a point on a node, or midway between two
// roads) both pick the one the adjacency lists reach first.
func TestSnapIndexedMatchesLinear(t *testing.T) {
	scene, _ := differentialScene(t)
	// A soup has what a grid lacks: edges much longer than the node spacing,
	// so the nearest edge's endpoints can both be far from the point.
	rng := newTestRand(29)
	var segs []Segment
	for i := 0; i < 120; i++ {
		a := geom.Pt(rng.Float64()*4000, rng.Float64()*4000)
		length := 20 + rng.Float64()*rng.Float64()*3000
		angle := rng.Float64() * 2 * math.Pi
		b := a.Add(geom.Pt(math.Cos(angle), math.Sin(angle)).Scale(length))
		segs = append(segs, Segment{A: a, B: b, Class: RoadClass(rng.Intn(3))})
	}
	soup, err := FromSegments(segs)
	if err != nil {
		t.Fatal(err)
	}
	// One road 10 km long past a village of short streets: the nearest edge
	// to a point on the road's verge is the road, whose endpoints lie far
	// beyond every village node.
	village := []Segment{{A: geom.Pt(0, 0), B: geom.Pt(10000, 0), Class: ClassHighway}}
	for i := 0; i < 40; i++ {
		a := geom.Pt(4800+rng.Float64()*400, 300+rng.Float64()*400)
		village = append(village, Segment{A: a, B: a.Add(geom.Pt(rng.Float64()*30+1, rng.Float64()*30)), Class: ClassRural})
	}
	roadside, err := FromSegments(village)
	if err != nil {
		t.Fatal(err)
	}
	points := 100000
	if testing.Short() {
		points = 10000
	}
	for name, g := range map[string]*Graph{"grid with island": scene, "soup": soup, "road past a village": roadside} {
		b := g.Bounds()
		for trial := 0; trial < points/3; trial++ {
			var p geom.Point
			switch rng.Intn(10) {
			case 0:
				p = g.Loc(NodeID(rng.Intn(g.NumNodes())))
			case 1: // midway between grid lines: up to four edges equally near
				p = geom.Pt(125+250*float64(rng.Intn(12)), 125+250*float64(rng.Intn(12)))
			case 2: // far outside: the rings run to the other side of the index
				p = geom.Pt(b.Min.X+(rng.Float64()*8-4)*b.Width(), b.Min.Y+(rng.Float64()*8-4)*b.Height())
			default:
				p = geom.Pt(b.Min.X+(rng.Float64()*1.4-0.2)*b.Width(), b.Min.Y+(rng.Float64()*1.4-0.2)*b.Height())
			}
			want, ok1 := g.snapLinear(p)
			got, ok2 := g.Snap(p)
			if !ok1 || !ok2 || got != want {
				t.Fatalf("%s: Snap(%v) = %+v ok=%v, every-edge scan %+v ok=%v", name, p, got, ok2, want, ok1)
			}
		}
	}
	if _, ok := NewGraph().Snap(geom.Pt(0, 0)); ok {
		t.Error("Snap on an empty graph should fail")
	}
}

// FromSegments by bounding-box sweep ≡ FromSegments over all pairs: the same
// nodes at the same locations in the same order, the same adjacency lists.
func TestFromSegmentsSweepMatchesAllPairs(t *testing.T) {
	rng := newTestRand(30)
	cuts := 0
	check := func(soup int, segs []Segment) {
		t.Helper()
		got, err1 := FromSegments(segs)
		want, err2 := fromSegmentsAllPairs(segs)
		if err1 != nil || err2 != nil {
			t.Fatalf("soup %d: sweep err %v, all-pairs err %v", soup, err1, err2)
		}
		if !slices.Equal(got.locs, want.locs) {
			t.Fatalf("soup %d: sweep built %d nodes, all pairs %d (or at other locations)", soup, got.NumNodes(), want.NumNodes())
		}
		for id := range want.adj {
			if !slices.Equal(got.adj[id], want.adj[id]) {
				t.Fatalf("soup %d node %d: sweep adjacency %v, all pairs %v", soup, id, got.adj[id], want.adj[id])
			}
		}
		cuts += want.NumEdges() - len(segs)
	}
	soups := 300
	if testing.Short() {
		soups = 60
	}
	for soup := 0; soup < soups; soup++ {
		// Endpoints drawn from a coarse lattice half the time: shared
		// endpoints, T-junctions, collinear overlaps and duplicates.
		// Classes are mixed, so highways pass over rural segments.
		pt := func() geom.Point {
			if rng.Intn(2) == 0 {
				return geom.Pt(float64(rng.Intn(9))*125, float64(rng.Intn(9))*125)
			}
			return geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		}
		var segs []Segment
		for len(segs) < 5+rng.Intn(80) {
			s := Segment{A: pt(), B: pt(), Class: RoadClass(rng.Intn(3))}
			if rng.Intn(4) == 0 { // axis-aligned: parallel and collinear pairs
				s.B.Y = s.A.Y
			}
			if s.A.Dist(s.B) > geom.Eps {
				segs = append(segs, s)
			}
		}
		check(soup, segs)
	}
	if cuts <= 0 {
		t.Errorf("the soups cut no segment (%d edges beyond one per segment)", cuts)
	}
	// The generated grid is the case that matters to sim.New. Its edges, fed
	// back as segments, are a soup of their own: every junction a shared
	// endpoint, every highway passing over the rural roads it crosses.
	g, err := GenerateGrid(GridConfig{Width: 5000, Height: 4000, Spacing: 250, SecondaryEvery: 3, HighwayEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	var segs []Segment
	for _, e := range g.Edges() {
		segs = append(segs, Segment{A: g.Loc(e.From), B: g.Loc(e.To), Class: e.Class})
	}
	check(-1, segs)
}
