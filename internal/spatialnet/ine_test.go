package spatialnet

import (
	"container/heap"
	"math"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
)

// INE — Incremental Network Expansion (Papadias et al., VLDB 2003) — is the
// second network-kNN algorithm the paper references in §3.4. Instead of
// drawing Euclidean candidates and validating them (IER), INE expands the
// network around the query point in Dijkstra order and collects POIs in the
// order their network distance is settled. Nothing in production calls it; it
// shares no code with PathFinder (its own container/heap search, its own
// every-edge snapping), which is what makes it the referee of IER and SNNN.

// POIIndex locates POIs on a road network: every POI is snapped to its
// nearest edge once, and lookups enumerate the POIs of an edge in order.
// Build one index per (graph, POI set) pair and reuse it across queries.
type POIIndex struct {
	g *Graph
	// perEdge maps the canonical edge key to POIs on it, sorted by the
	// snap parameter t.
	perEdge map[edgeKey][]snappedPOI
	n       int
}

type edgeKey struct{ a, b NodeID }

type snappedPOI struct {
	poi core.POI
	t   float64 // parameter along the canonical edge direction (a -> b)
	off float64 // snap offset: Euclidean distance from the POI to the edge
}

func canonicalKey(a, b NodeID) (edgeKey, bool) {
	if a <= b {
		return edgeKey{a, b}, false
	}
	return edgeKey{b, a}, true
}

// NewPOIIndex snaps every POI onto the network. POIs that cannot snap (an
// empty graph) are dropped.
func NewPOIIndex(g *Graph, pois []core.POI) *POIIndex {
	idx := &POIIndex{g: g, perEdge: make(map[edgeKey][]snappedPOI)}
	for _, p := range pois {
		snap, ok := g.snapLinear(p.Loc)
		if !ok {
			continue
		}
		key, flipped := canonicalKey(snap.Edge.From, snap.Edge.To)
		t := snap.T
		if flipped {
			t = 1 - t
		}
		idx.perEdge[key] = append(idx.perEdge[key], snappedPOI{poi: p, t: t, off: snap.SnapDist})
		idx.n++
	}
	//simvet:ordered — each entry is sorted in place independently; no state crosses iterations
	for key := range idx.perEdge {
		ps := idx.perEdge[key]
		sort.Slice(ps, func(i, j int) bool {
			if ps[i].t != ps[j].t {
				return ps[i].t < ps[j].t
			}
			return ps[i].poi.ID < ps[j].poi.ID // total order: co-located POIs enumerate deterministically
		})
		idx.perEdge[key] = ps
	}
	return idx
}

// Len returns the number of indexed POIs.
func (idx *POIIndex) Len() int { return idx.n }

// edgePOIs returns the POIs snapped onto edge (a, b) together with their
// parameter measured from a.
func (idx *POIIndex) edgePOIs(a, b NodeID) []snappedPOI {
	key, flipped := canonicalKey(a, b)
	ps := idx.perEdge[key]
	if !flipped || len(ps) == 0 {
		return ps
	}
	out := make([]snappedPOI, len(ps))
	for i, p := range ps {
		out[len(ps)-1-i] = snappedPOI{poi: p.poi, t: 1 - p.t, off: p.off}
	}
	return out
}

// INE computes the k network-distance nearest neighbors of q by incremental
// network expansion: a Dijkstra wavefront grows from the query point's snap
// position; whenever an edge is first traversed, the POIs on it are scored
// with their exact network distance (including their snap offsets, matching
// NetworkDistance semantics) and pushed into the result set. The search
// stops when the wavefront distance exceeds the current k-th result — every
// undiscovered POI must then be farther.
func INE(g *Graph, idx *POIIndex, q geom.Point, k int) []NetworkResult {
	if k <= 0 || g.NumNodes() == 0 {
		return nil
	}
	snapQ, ok := g.snapLinear(q)
	if !ok {
		return nil
	}

	// best holds the smallest network distance seen per POI; the bound is
	// the k-th smallest distinct value. A POI can be scored from both edge
	// endpoints, so deduplication must happen before the bound tightens —
	// otherwise two one-sided scores of one POI could masquerade as two
	// results and cut the search off early.
	best := make(map[int64]NetworkResult)
	bound := math.Inf(1)
	recomputeBound := func() {
		if len(best) < k {
			bound = math.Inf(1)
			return
		}
		nds := make([]float64, 0, len(best))
		for _, r := range best {
			nds = append(nds, r.ND)
		}
		sort.Float64s(nds)
		bound = nds[k-1]
	}
	consider := func(p snappedPOI, nd float64) {
		old, ok := best[p.poi.ID]
		if ok && old.ND <= nd {
			return
		}
		best[p.poi.ID] = NetworkResult{POI: p.poi, ED: q.Dist(p.poi.Loc), ND: nd}
		recomputeBound()
	}

	// The query's own edge: POIs reachable without leaving it.
	qOff := snapQ.SnapDist
	for _, p := range idx.edgePOIs(snapQ.Edge.From, snapQ.Edge.To) {
		// p.t here is measured from snapQ.Edge.From.
		nd := qOff + math.Abs(p.t-snapQ.T)*snapQ.Edge.Length + p.off
		consider(p, nd)
	}

	// Dijkstra from the two virtual seeds. Each edge is scored one-sidedly
	// when an endpoint settles (cur.dist is exact at that moment), so every
	// edge POI eventually receives both one-sided distances and the dedup
	// below keeps the minimum — which is its exact network distance
	// min(d(u)+t·L, d(v)+(1−t)·L) + snap offset. Early termination is safe:
	// an unsettled endpoint lies beyond the bound, so its one-sided value
	// cannot affect the top-k. (The settled side's value is then already the
	// true minimum for any POI that belongs in the result.)
	dist := make(map[NodeID]float64, 64)
	seedFrom := qOff + snapQ.T*snapQ.Edge.Length
	seedTo := qOff + (1-snapQ.T)*snapQ.Edge.Length
	dist[snapQ.Edge.From] = seedFrom
	dist[snapQ.Edge.To] = seedTo
	pq := distQueue{
		{id: snapQ.Edge.From, dist: seedFrom},
		{id: snapQ.Edge.To, dist: seedTo},
	}
	heap.Init(&pq)
	settled := map[NodeID]bool{}

	for pq.Len() > 0 {
		cur := heap.Pop(&pq).(nodeDist)
		if settled[cur.id] || cur.dist > dist[cur.id] {
			continue
		}
		settled[cur.id] = true
		if cur.dist > bound {
			break // no POI beyond the settled frontier can improve
		}
		g.Neighbors(cur.id, func(to NodeID, length float64, _ RoadClass) {
			for _, p := range idx.edgePOIs(cur.id, to) {
				// p.t measured from cur.id.
				consider(p, cur.dist+p.t*length+p.off)
			}
			nd := cur.dist + length
			if old, ok := dist[to]; !ok || nd < old {
				dist[to] = nd
				heap.Push(&pq, nodeDist{id: to, dist: nd})
			}
		})
	}
	out := make([]NetworkResult, 0, len(best))
	for _, r := range best {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ND != out[j].ND {
			return out[i].ND < out[j].ND
		}
		// out was collected from a map; without a total order, equal-ND
		// POIs at the k boundary would be kept or dropped by iteration
		// order — nondeterministic output for one fixed seed.
		return out[i].POI.ID < out[j].POI.ID
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

func TestPOIIndexBasics(t *testing.T) {
	g := lineGraph(5) // nodes at x = 0..4
	pois := []core.POI{
		{ID: 1, Loc: geom.Pt(0.5, 0)},
		{ID: 2, Loc: geom.Pt(0.2, 1)}, // off-network, snaps with offset 1
		{ID: 3, Loc: geom.Pt(3.7, 0)},
	}
	idx := NewPOIIndex(g, pois)
	if idx.Len() != 3 {
		t.Fatalf("indexed %d POIs", idx.Len())
	}
	// Edge (0,1) holds POIs 1 and 2, ordered by t.
	ps := idx.edgePOIs(0, 1)
	if len(ps) != 2 {
		t.Fatalf("edge (0,1) has %d POIs", len(ps))
	}
	if ps[0].poi.ID != 2 || ps[1].poi.ID != 1 {
		t.Errorf("edge POIs out of order: %v %v", ps[0].poi.ID, ps[1].poi.ID)
	}
	// Reversed direction flips the parameters.
	rev := idx.edgePOIs(1, 0)
	if rev[0].poi.ID != 1 || math.Abs(rev[0].t-0.5) > 1e-9 {
		t.Errorf("reversed edge POIs wrong: %+v", rev[0])
	}
	if math.Abs(ps[0].off-1) > 1e-9 {
		t.Errorf("snap offset = %v, want 1", ps[0].off)
	}
	empty := NewPOIIndex(NewGraph(), pois)
	if empty.Len() != 0 {
		t.Error("POIs snapped onto an empty graph")
	}
}

func TestINEMatchesBruteForce(t *testing.T) {
	g, pois := testGridWithPOIs(t, 21, 80)
	idx := NewPOIIndex(g, pois)
	pf := NewPathFinder(g)
	rng := newTestRand(22)
	b := g.Bounds()
	for trial := 0; trial < 25; trial++ {
		q := geom.Pt(rng.Float64()*b.Width(), rng.Float64()*b.Height())
		k := 1 + rng.Intn(6)
		got := INE(g, idx, q, k)
		want := BruteForceNetworkKNN(pf, q, k, pois)
		sameNetworkResults(t, "INE", got, want)
	}
}

func TestINEAgreesWithIER(t *testing.T) {
	g, pois := testGridWithPOIs(t, 31, 60)
	idx := NewPOIIndex(g, pois)
	pf := NewPathFinder(g)
	rng := newTestRand(32)
	b := g.Bounds()
	for trial := 0; trial < 20; trial++ {
		q := geom.Pt(rng.Float64()*b.Width(), rng.Float64()*b.Height())
		k := 1 + rng.Intn(5)
		ine := INE(g, idx, q, k)
		ier := IER(pf, q, k, incrementalSource(q, pois))
		sameNetworkResults(t, "INE vs IER", ine, ier)
	}
}

func TestINEEdgeCases(t *testing.T) {
	g, pois := testGridWithPOIs(t, 41, 10)
	idx := NewPOIIndex(g, pois)
	q := geom.Pt(1000, 1000)
	if got := INE(g, idx, q, 0); got != nil {
		t.Errorf("k=0 returned %v", got)
	}
	if got := INE(g, idx, q, 50); len(got) != 10 {
		t.Errorf("k beyond POI count returned %d, want all 10", len(got))
	}
	if got := INE(NewGraph(), idx, q, 3); got != nil {
		t.Errorf("empty graph returned %v", got)
	}
}

// Off-network POIs must carry their snap offsets exactly like
// NetworkDistance does, keeping INE and the brute-force oracle consistent.
func TestINEOffNetworkPOIs(t *testing.T) {
	g := lineGraph(11) // 0..10 on the x axis
	pois := []core.POI{
		{ID: 1, Loc: geom.Pt(3, 2)}, // snap offset 2 at x=3
		{ID: 2, Loc: geom.Pt(7, 1)}, // snap offset 1 at x=7
		{ID: 3, Loc: geom.Pt(9, 0)}, // on network
	}
	idx := NewPOIIndex(g, pois)
	q := geom.Pt(5, 0)
	got := INE(g, idx, q, 3)
	// Expected NDs: POI1: |5-3| + 2 = 4; POI2: |7-5| + 1 = 3; POI3: 4.
	if len(got) != 3 {
		t.Fatalf("got %d results", len(got))
	}
	if got[0].ID != 2 || math.Abs(got[0].ND-3) > 1e-9 {
		t.Errorf("first = %+v, want POI 2 at ND 3", got[0])
	}
	for _, r := range got[1:] {
		if math.Abs(r.ND-4) > 1e-9 {
			t.Errorf("ND = %v, want 4", r.ND)
		}
	}
}

// The wavefront must terminate early: on a large grid with near POIs, INE
// should settle far fewer nodes than the graph holds. We proxy this through
// latency-free structural assertions: correctness is checked elsewhere, here
// we bound the work via a huge graph and a tight cluster of POIs.
func TestINETerminatesEarly(t *testing.T) {
	g, err := GenerateGrid(GridConfig{Width: 10000, Height: 10000, Spacing: 200,
		SecondaryEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	q := geom.Pt(5000, 5000)
	pois := []core.POI{
		{ID: 1, Loc: geom.Pt(5100, 5000)},
		{ID: 2, Loc: geom.Pt(5000, 5200)},
		{ID: 3, Loc: geom.Pt(4800, 4900)},
	}
	idx := NewPOIIndex(g, pois)
	got := INE(g, idx, q, 2)
	if len(got) != 2 {
		t.Fatalf("got %d results", len(got))
	}
	want := BruteForceNetworkKNN(NewPathFinder(g), q, 2, pois)
	sameNetworkResults(t, "early-term INE", got, want)
}

func BenchmarkINE(b *testing.B) {
	g, err := GenerateGrid(GridConfig{Width: 10000, Height: 10000, Spacing: 250,
		SecondaryEvery: 4})
	if err != nil {
		b.Fatal(err)
	}
	rng := newTestRand(5)
	locs := RandomOnNetworkPOIs(g, 400, rng)
	pois := make([]core.POI, len(locs))
	for i, l := range locs {
		pois[i] = core.POI{ID: int64(i), Loc: l}
	}
	idx := NewPOIIndex(g, pois)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := geom.Pt(rng.Float64()*10000, rng.Float64()*10000)
		INE(g, idx, q, 5)
	}
}

func BenchmarkIER(b *testing.B) {
	g, err := GenerateGrid(GridConfig{Width: 10000, Height: 10000, Spacing: 250,
		SecondaryEvery: 4})
	if err != nil {
		b.Fatal(err)
	}
	rng := newTestRand(5)
	locs := RandomOnNetworkPOIs(g, 400, rng)
	pois := make([]core.POI, len(locs))
	for i, l := range locs {
		pois[i] = core.POI{ID: int64(i), Loc: l}
	}
	pf := NewPathFinder(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := geom.Pt(rng.Float64()*10000, rng.Float64()*10000)
		IER(pf, q, 5, incrementalSource(q, pois))
	}
}
