package spatialnet

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
)

// newTestRand keeps rand construction in one place for the test files.
func newTestRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// euclideanFetcher returns a FetchFunc over a static POI slice that answers
// with exactly the n asked for — Algorithm 2's SENN(Q, k+i) — with a call
// counter to observe incremental behavior.
func euclideanFetcher(q geom.Point, pois []core.POI, calls *int) FetchFunc {
	sorted := append([]core.POI(nil), pois...)
	sort.Slice(sorted, func(i, j int) bool {
		return q.Dist2(sorted[i].Loc) < q.Dist2(sorted[j].Loc)
	})
	return func(n int) []core.POI {
		if calls != nil {
			*calls++
		}
		if n > len(sorted) {
			n = len(sorted)
		}
		return sorted[:n]
	}
}

// incrementalSource returns a next-func yielding POIs in ascending Euclidean
// order.
func incrementalSource(q geom.Point, pois []core.POI) func() (core.POI, bool) {
	sorted := append([]core.POI(nil), pois...)
	sort.Slice(sorted, func(i, j int) bool {
		return q.Dist2(sorted[i].Loc) < q.Dist2(sorted[j].Loc)
	})
	i := 0
	return func() (core.POI, bool) {
		if i >= len(sorted) {
			return core.POI{}, false
		}
		p := sorted[i]
		i++
		return p, true
	}
}

func testGridWithPOIs(t *testing.T, seed int64, nPOI int) (*Graph, []core.POI) {
	t.Helper()
	g, err := GenerateGrid(GridConfig{
		Width: 2000, Height: 2000, Spacing: 200,
		SecondaryEvery: 5, HighwayEvery: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := newTestRand(seed)
	locs := RandomOnNetworkPOIs(g, nPOI, rng)
	pois := make([]core.POI, nPOI)
	for i, l := range locs {
		pois[i] = core.POI{ID: int64(i), Loc: l}
	}
	return g, pois
}

func sameNetworkResults(t *testing.T, label string, got, want []NetworkResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d results, want %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i].ND-want[i].ND) > 1e-6 {
			t.Fatalf("%s: result %d ND=%v, want %v", label, i, got[i].ND, want[i].ND)
		}
	}
}

func TestIERMatchesBruteForce(t *testing.T) {
	g, pois := testGridWithPOIs(t, 1, 60)
	pf := NewPathFinder(g)
	rng := newTestRand(2)
	b := g.Bounds()
	for trial := 0; trial < 20; trial++ {
		q := geom.Pt(rng.Float64()*b.Width(), rng.Float64()*b.Height())
		k := 1 + rng.Intn(6)
		got := IER(pf, q, k, incrementalSource(q, pois))
		want := BruteForceNetworkKNN(pf, q, k, pois)
		sameNetworkResults(t, "IER", got, want)
	}
}

func TestSNNNMatchesBruteForce(t *testing.T) {
	g, pois := testGridWithPOIs(t, 3, 60)
	pf := NewPathFinder(g)
	rng := newTestRand(4)
	b := g.Bounds()
	for trial := 0; trial < 20; trial++ {
		q := geom.Pt(rng.Float64()*b.Width(), rng.Float64()*b.Height())
		k := 1 + rng.Intn(6)
		got := SNNN(pf, q, k, euclideanFetcher(q, pois, nil))
		want := BruteForceNetworkKNN(pf, q, k, pois)
		sameNetworkResults(t, "SNNN", got, want)
	}
}

// SNNN must stop early: the number of fetch calls stays far below the POI
// count when the network detour factor is modest.
func TestSNNNIncrementalTermination(t *testing.T) {
	g, pois := testGridWithPOIs(t, 5, 200)
	q := geom.Pt(1000, 1000)
	calls := 0
	_ = SNNN(NewPathFinder(g), q, 3, euclideanFetcher(q, pois, &calls))
	if calls > 40 {
		t.Errorf("SNNN made %d fetch calls for 200 POIs; bound not effective", calls)
	}
	if calls < 2 {
		t.Errorf("SNNN made only %d calls; expected the incremental loop to run", calls)
	}
}

func TestIERResultsSortedByND(t *testing.T) {
	g, pois := testGridWithPOIs(t, 7, 80)
	q := geom.Pt(500, 1500)
	got := IER(NewPathFinder(g), q, 10, incrementalSource(q, pois))
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i].ND < got[j].ND }) {
		t.Error("IER results not ND-sorted")
	}
	for _, r := range got {
		if r.ND < r.ED-1e-9 {
			t.Errorf("ND %v below ED %v: lower-bound property violated", r.ND, r.ED)
		}
	}
}

func TestIERKZero(t *testing.T) {
	g, pois := testGridWithPOIs(t, 9, 10)
	q := geom.Pt(0, 0)
	if got := IER(NewPathFinder(g), q, 0, incrementalSource(q, pois)); got != nil {
		t.Errorf("k=0 returned %v", got)
	}
	if got := SNNN(NewPathFinder(g), q, 0, euclideanFetcher(q, pois, nil)); got != nil {
		t.Errorf("k=0 returned %v", got)
	}
}

func TestSNNNFewerPOIsThanK(t *testing.T) {
	g, pois := testGridWithPOIs(t, 11, 3)
	q := geom.Pt(1000, 1000)
	got := SNNN(NewPathFinder(g), q, 10, euclideanFetcher(q, pois, nil))
	if len(got) != 3 {
		t.Errorf("got %d results, want all 3", len(got))
	}
}

func TestIERSkipsUnreachable(t *testing.T) {
	// Two separate road components; POIs on both; query near component A.
	g, err := FromSegments([]Segment{
		{A: geom.Pt(0, 0), B: geom.Pt(100, 0), Class: ClassRural},
		{A: geom.Pt(0, 500), B: geom.Pt(100, 500), Class: ClassRural},
	})
	if err != nil {
		t.Fatal(err)
	}
	pois := []core.POI{
		{ID: 1, Loc: geom.Pt(90, 0)},   // reachable
		{ID: 2, Loc: geom.Pt(10, 500)}, // other component
		{ID: 3, Loc: geom.Pt(50, 0)},   // reachable
	}
	q := geom.Pt(0, 0)
	// Network distance from q measures within component A only.
	got := IER(NewPathFinder(g), q, 3, incrementalSource(q, pois))
	if len(got) != 2 {
		t.Fatalf("got %d results, want 2 reachable", len(got))
	}
	for _, r := range got {
		if r.ID == 2 {
			t.Error("unreachable POI reported")
		}
	}
}

// The network detour effect of Figure 8: the Euclidean NN need not be the
// network NN. Construct a case and check IER handles the reordering.
func TestIERReordersByNetworkDistance(t *testing.T) {
	// A comb-shaped network: a long baseline with a tall tooth. POI A sits
	// at the top of the tooth (close in Euclidean terms, far along the
	// network); POI B sits down the baseline (farther in Euclidean terms,
	// closer along the network).
	g, err := FromSegments([]Segment{
		{A: geom.Pt(0, 0), B: geom.Pt(300, 0), Class: ClassRural},  // baseline
		{A: geom.Pt(10, 0), B: geom.Pt(10, 90), Class: ClassRural}, // tooth
	})
	if err != nil {
		t.Fatal(err)
	}
	a := core.POI{ID: 1, Loc: geom.Pt(10, 90)} // ED from q: ~90.5, ND: 100
	b := core.POI{ID: 2, Loc: geom.Pt(95, 0)}  // ED from q: 95,  ND: 95
	q := geom.Pt(0, 0)
	got := IER(NewPathFinder(g), q, 1, incrementalSource(q, []core.POI{a, b}))
	if len(got) != 1 || got[0].ID != 2 {
		t.Fatalf("network NN should be POI 2, got %v", got)
	}
}
