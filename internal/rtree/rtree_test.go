package rtree

import (
	"math/rand"
	"sort"
	"testing"
	"unsafe"

	"repro/internal/geom"
)

func randPoint(rng *rand.Rand, span float64) geom.Point {
	return geom.Pt(rng.Float64()*span, rng.Float64()*span)
}

func randPoints(rng *rand.Rand, n int, span float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = randPoint(rng, span)
	}
	return pts
}

func buildPoints(fanout int, pts []geom.Point) *Tree {
	return Build(fanout, len(pts), func(i int) geom.Point { return pts[i] })
}

func TestBuildValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Build(3, …) should panic")
		}
	}()
	Build(3, 0, nil)
}

func TestEmptyTree(t *testing.T) {
	tr := Build(DefaultMaxEntries, 0, nil)
	if tr.Len() != 0 {
		t.Errorf("Len = %d", tr.Len())
	}
	if tr.Height() != 1 {
		t.Errorf("Height = %d", tr.Height())
	}
	if !tr.Bounds().IsEmpty() {
		t.Error("empty tree should have empty bounds")
	}
	found := 0
	tr.Search(geom.NewRect(geom.Pt(-1e9, -1e9), geom.Pt(1e9, 1e9)), func(geom.Point, int32) bool {
		found++
		return true
	})
	if found != 0 {
		t.Errorf("search on empty tree found %d", found)
	}
	if _, ok := tr.Root(); ok {
		t.Error("Root ok should be false for empty tree")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Errorf("invariants: %v", err)
	}
}

func TestBuildAndSearchSmall(t *testing.T) {
	pts := []geom.Point{
		geom.Pt(1, 1), geom.Pt(2, 2), geom.Pt(3, 3), geom.Pt(10, 10),
		geom.Pt(11, 11), geom.Pt(12, 12), geom.Pt(20, 1), geom.Pt(21, 2),
	}
	tr := buildPoints(4, pts)
	if tr.Len() != len(pts) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(pts))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	var got []int
	tr.Search(geom.NewRect(geom.Pt(0, 0), geom.Pt(5, 5)), func(_ geom.Point, d int32) bool {
		got = append(got, int(d))
		return true
	})
	sort.Ints(got)
	want := []int{0, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("search got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("search got %v, want %v", got, want)
		}
	}
}

func TestSearchEarlyStop(t *testing.T) {
	pts := make([]geom.Point, 100)
	for i := range pts {
		pts[i] = geom.Pt(float64(i), 0)
	}
	tr := buildPoints(4, pts)
	count := 0
	tr.Search(geom.NewRect(geom.Pt(-1, -1), geom.Pt(200, 1)), func(geom.Point, int32) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("early stop visited %d, want 5", count)
	}
}

// Randomized search correctness against a brute-force reference, across
// several branching factors.
func TestSearchMatchesBruteForce(t *testing.T) {
	for _, maxEntries := range []int{4, 8, 30} {
		rng := rand.New(rand.NewSource(int64(maxEntries)))
		pts := randPoints(rng, 2000, 1000)
		tr := buildPoints(maxEntries, pts)
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("maxEntries=%d invariants: %v", maxEntries, err)
		}
		for q := 0; q < 50; q++ {
			query := geom.NewRect(randPoint(rng, 1000), randPoint(rng, 1000))
			want := map[int]bool{}
			for i, p := range pts {
				if query.Contains(p) {
					want[i] = true
				}
			}
			got := map[int]bool{}
			tr.Search(query, func(_ geom.Point, d int32) bool {
				got[int(d)] = true
				return true
			})
			if len(got) != len(want) {
				t.Fatalf("maxEntries=%d query %v: got %d results, want %d",
					maxEntries, query, len(got), len(want))
			}
			for i := range want {
				if !got[i] {
					t.Fatalf("maxEntries=%d query %v: missing %d", maxEntries, query, i)
				}
			}
		}
	}
}

func TestDuplicatePoints(t *testing.T) {
	p := geom.Pt(7, 7)
	pts := make([]geom.Point, 50)
	for i := range pts {
		pts[i] = p
	}
	tr := buildPoints(4, pts)
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants with duplicates: %v", err)
	}
	count := 0
	tr.Search(geom.RectFromPoint(p), func(geom.Point, int32) bool { count++; return true })
	if count != 50 {
		t.Fatalf("found %d duplicates, want 50", count)
	}
}

// Search reports the nodes it visited: at least the root, and for a window
// covering everything exactly the node count of the tree.
func TestSearchReturnsNodesVisited(t *testing.T) {
	tr := buildPoints(4, randPoints(rand.New(rand.NewSource(5)), 1000, 100))
	all := func(geom.Point, int32) bool { return true }
	if got := Build(4, 0, nil).Search(geom.NewRect(geom.Pt(0, 0), geom.Pt(1, 1)), all); got != 1 {
		t.Fatalf("empty tree: search visited %d nodes, want the root alone", got)
	}
	small := tr.Search(geom.NewRect(geom.Pt(0, 0), geom.Pt(10, 10)), all)
	if small < int64(tr.Height()) {
		t.Fatalf("small search visited %d nodes, want at least one per level (%d)", small, tr.Height())
	}
	root, _ := tr.Root()
	leaves, inner := liveNodes(root)
	full := tr.Search(geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100)), all)
	if full != int64(leaves+inner) {
		t.Errorf("full-area search visited %d nodes, tree has %d", full, leaves+inner)
	}
	if full <= small {
		t.Errorf("full-area search (%d nodes) should exceed small search (%d)", full, small)
	}
	// An early stop ends the count with the search.
	if got := tr.Search(geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100)), func(geom.Point, int32) bool { return false }); got != int64(tr.Height()) {
		t.Errorf("search stopped at the first hit visited %d nodes, want one root-to-leaf path (%d)", got, tr.Height())
	}
}

func TestNodeTraversalSeesEverything(t *testing.T) {
	const n = 700
	tr := buildPoints(5, randPoints(rand.New(rand.NewSource(8)), n, 50))
	got := map[int]bool{}
	var walk func(nd Node)
	walk = func(nd Node) {
		for i := 0; i < nd.Len(); i++ {
			if nd.IsLeaf() {
				got[int(nd.Ref(i))] = true
				if !nd.Rect(i).ContainsRect(nd.Rect(i)) {
					t.Fatal("self containment must hold")
				}
			} else {
				child := nd.Child(i)
				cb := geom.EmptyRect()
				for j := 0; j < child.Len(); j++ {
					cb = cb.Union(child.Rect(j))
				}
				if !nd.Rect(i).ContainsRect(cb) {
					t.Fatalf("entry rect %v does not contain child bounds %v", nd.Rect(i), cb)
				}
				walk(child)
			}
		}
	}
	root, ok := tr.Root()
	if !ok {
		t.Fatal("Root not ok")
	}
	walk(root)
	if len(got) != n {
		t.Fatalf("traversal saw %d items, want %d", len(got), n)
	}
}

// A packed tree has the least height that holds its points: 8^4 < 5000 ≤ 8^5.
func TestHeightGrowsLogarithmically(t *testing.T) {
	tr := buildPoints(8, randPoints(rand.New(rand.NewSource(3)), 5000, 10000))
	if h := tr.Height(); h != 5 {
		t.Errorf("height = %d, want 5", h)
	}
}

func BenchmarkSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tr := buildPoints(DefaultMaxEntries, randPoints(rng, 100000, 1e5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := randPoint(rng, 1e5)
		query := geom.NewRect(q, q.Add(geom.Pt(1000, 1000)))
		tr.Search(query, func(geom.Point, int32) bool { return true })
	}
}

// Bytes prices the arenas with the slot sizes DESIGN.md §10 budgets for; the
// compiler's view of the same slices must agree, and every node owns exactly
// M slots of its kind.
func TestBytesMatchesLayout(t *testing.T) {
	const m = 8
	tr := buildPoints(m, randPoints(rand.New(rand.NewSource(6)), 3000, 100))
	want := int64(len(tr.nodes))*int64(unsafe.Sizeof(tr.nodes[0])) +
		int64(len(tr.leafPts))*int64(unsafe.Sizeof(tr.leafPts[0])) + int64(len(tr.leafRefs))*int64(unsafe.Sizeof(tr.leafRefs[0])) +
		int64(len(tr.innerRects))*int64(unsafe.Sizeof(tr.innerRects[0])) + int64(len(tr.innerKids))*int64(unsafe.Sizeof(tr.innerKids[0]))
	if got := tr.Bytes(); got != want || len(tr.leafPts) != len(tr.leafRefs) || len(tr.innerRects) != len(tr.innerKids) {
		t.Fatalf("Bytes() = %d, arenas hold %d", got, want)
	}
	root, _ := tr.Root()
	leaves, inner := liveNodes(root)
	if len(tr.leafRefs) != m*leaves || len(tr.innerKids) != m*inner {
		t.Fatalf("%d leaves and %d inner nodes own %d and %d slots, want %d each", leaves, inner,
			len(tr.leafRefs), len(tr.innerKids), m)
	}
}
