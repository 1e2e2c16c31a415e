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

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(3) should panic")
		}
	}()
	New(3)
}

func TestEmptyTree(t *testing.T) {
	tr := NewDefault()
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

func TestInsertAndSearchSmall(t *testing.T) {
	tr := New(4)
	pts := []geom.Point{
		geom.Pt(1, 1), geom.Pt(2, 2), geom.Pt(3, 3), geom.Pt(10, 10),
		geom.Pt(11, 11), geom.Pt(12, 12), geom.Pt(20, 1), geom.Pt(21, 2),
	}
	for i, p := range pts {
		tr.InsertPoint(p, int32(i))
	}
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
	tr := New(4)
	for i := 0; i < 100; i++ {
		tr.InsertPoint(geom.Pt(float64(i), 0), int32(i))
	}
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
// several branching factors to exercise splits at every level.
func TestSearchMatchesBruteForce(t *testing.T) {
	for _, maxEntries := range []int{4, 8, 30} {
		rng := rand.New(rand.NewSource(int64(maxEntries)))
		tr := New(maxEntries)
		const n = 2000
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = randPoint(rng, 1000)
			tr.InsertPoint(pts[i], int32(i))
		}
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

func TestDelete(t *testing.T) {
	tr := New(4)
	rng := rand.New(rand.NewSource(42))
	const n = 800
	pts := make([]geom.Point, n)
	alive := make(map[int]bool, n)
	for i := range pts {
		pts[i] = randPoint(rng, 300)
		tr.InsertPoint(pts[i], int32(i))
		alive[i] = true
	}
	// Delete a random 60 % interleaved with invariant checks.
	order := rng.Perm(n)
	for k, i := range order[:n*6/10] {
		if !tr.DeletePoint(pts[i], int32(i)) {
			t.Fatalf("delete %d failed", i)
		}
		delete(alive, i)
		if k%50 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("invariants after %d deletes: %v", k+1, err)
			}
		}
	}
	if tr.Len() != len(alive) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(alive))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	got := map[int]bool{}
	tr.All(func(_ geom.Point, d int32) bool { got[int(d)] = true; return true })
	if len(got) != len(alive) {
		t.Fatalf("All found %d, want %d", len(got), len(alive))
	}
	for i := range alive {
		if !got[i] {
			t.Fatalf("surviving item %d missing", i)
		}
	}
	// Deleting something absent must fail without corrupting the tree.
	if tr.DeletePoint(geom.Pt(-1, -1), int32(12345)) {
		t.Error("delete of absent item reported success")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants after failed delete: %v", err)
	}
}

func TestDeleteAll(t *testing.T) {
	tr := New(4)
	rng := rand.New(rand.NewSource(9))
	const n = 300
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = randPoint(rng, 100)
		tr.InsertPoint(pts[i], int32(i))
	}
	for i := range pts {
		if !tr.DeletePoint(pts[i], int32(i)) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len after deleting all = %d", tr.Len())
	}
	if tr.Height() != 1 {
		t.Errorf("Height after deleting all = %d, want 1", tr.Height())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	// Tree remains usable.
	tr.InsertPoint(geom.Pt(5, 5), 777)
	found := false
	tr.Search(geom.RectFromPoint(geom.Pt(5, 5)), func(_ geom.Point, d int32) bool {
		found = d == 777
		return true
	})
	if !found {
		t.Error("reuse after full deletion failed")
	}
}

func TestInterleavedInsertDelete(t *testing.T) {
	tr := New(6)
	rng := rand.New(rand.NewSource(1234))
	type rec struct {
		p  geom.Point
		id int
	}
	var live []rec
	nextID := 0
	for step := 0; step < 4000; step++ {
		if len(live) == 0 || rng.Float64() < 0.6 {
			r := rec{p: randPoint(rng, 200), id: nextID}
			nextID++
			tr.InsertPoint(r.p, int32(r.id))
			live = append(live, r)
		} else {
			i := rng.Intn(len(live))
			r := live[i]
			if !tr.DeletePoint(r.p, int32(r.id)) {
				t.Fatalf("step %d: delete %d failed", step, r.id)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if step%500 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("step %d invariants: %v", step, err)
			}
			if tr.Len() != len(live) {
				t.Fatalf("step %d: Len %d, want %d", step, tr.Len(), len(live))
			}
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("final invariants: %v", err)
	}
}

func TestDuplicatePoints(t *testing.T) {
	tr := New(4)
	p := geom.Pt(7, 7)
	for i := 0; i < 50; i++ {
		tr.InsertPoint(p, int32(i))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants with duplicates: %v", err)
	}
	count := 0
	tr.Search(geom.RectFromPoint(p), func(geom.Point, int32) bool { count++; return true })
	if count != 50 {
		t.Fatalf("found %d duplicates, want 50", count)
	}
	// Delete a specific duplicate by value.
	if !tr.DeletePoint(p, int32(25)) {
		t.Fatal("delete of specific duplicate failed")
	}
	count = 0
	seen25 := false
	tr.Search(geom.RectFromPoint(p), func(_ geom.Point, d int32) bool {
		count++
		if int(d) == 25 {
			seen25 = true
		}
		return true
	})
	if count != 49 || seen25 {
		t.Fatalf("after delete: count=%d seen25=%v", count, seen25)
	}
}

// Search reports the nodes it visited: at least the root, and for a window
// covering everything exactly the node count of the tree.
func TestSearchReturnsNodesVisited(t *testing.T) {
	tr := New(4)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		tr.InsertPoint(randPoint(rng, 100), int32(i))
	}
	all := func(geom.Point, int32) bool { return true }
	if got := New(4).Search(geom.NewRect(geom.Pt(0, 0), geom.Pt(1, 1)), all); got != 1 {
		t.Fatalf("empty tree: search visited %d nodes, want the root alone", got)
	}
	small := tr.Search(geom.NewRect(geom.Pt(0, 0), geom.Pt(10, 10)), all)
	if small < int64(tr.Height()) {
		t.Fatalf("small search visited %d nodes, want at least one per level (%d)", small, tr.Height())
	}
	var nodes int64
	var walk func(nd Node)
	walk = func(nd Node) {
		nodes++
		for i := 0; !nd.IsLeaf() && i < nd.Len(); i++ {
			walk(nd.Child(i))
		}
	}
	root, _ := tr.Root()
	walk(root)
	full := tr.Search(geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100)), all)
	if full != nodes {
		t.Errorf("full-area search visited %d nodes, tree has %d", full, nodes)
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
	tr := New(5)
	rng := rand.New(rand.NewSource(8))
	want := map[int]bool{}
	for i := 0; i < 700; i++ {
		tr.InsertPoint(randPoint(rng, 50), int32(i))
		want[i] = true
	}
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
	if len(got) != len(want) {
		t.Fatalf("traversal saw %d items, want %d", len(got), len(want))
	}
}

func TestHeightGrowsLogarithmically(t *testing.T) {
	tr := New(8)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		tr.InsertPoint(randPoint(rng, 10000), int32(i))
	}
	h := tr.Height()
	// With fan-out 8 and min fill 3, height of 5000 items stays modest.
	if h < 3 || h > 7 {
		t.Errorf("height = %d, expected between 3 and 7", h)
	}
}

func TestClusteredInsertionKeepsInvariants(t *testing.T) {
	// Highly clustered data exercises forced reinsertion heavily.
	tr := New(10)
	rng := rand.New(rand.NewSource(13))
	for c := 0; c < 20; c++ {
		cx, cy := rng.Float64()*1000, rng.Float64()*1000
		for i := 0; i < 200; i++ {
			p := geom.Pt(cx+rng.NormFloat64(), cy+rng.NormFloat64())
			tr.InsertPoint(p, int32(c*200+i))
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if tr.Len() != 4000 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func BenchmarkSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tr := NewDefault()
	for i := 0; i < 100000; i++ {
		tr.InsertPoint(randPoint(rng, 1e5), int32(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := randPoint(rng, 1e5)
		query := geom.NewRect(q, q.Add(geom.Pt(1000, 1000)))
		tr.Search(query, func(geom.Point, int32) bool { return true })
	}
}

// Bytes prices the arenas with the slot sizes DESIGN.md §16 budgets for; the
// compiler's view of the same slices must agree.
func TestBytesMatchesLayout(t *testing.T) {
	tr := New(8)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 3000; i++ {
		tr.InsertPoint(randPoint(rng, 100), int32(i))
	}
	want := int64(len(tr.nodes))*int64(unsafe.Sizeof(tr.nodes[0])) +
		int64(len(tr.leafPts))*int64(unsafe.Sizeof(tr.leafPts[0])) + int64(len(tr.leafRefs))*int64(unsafe.Sizeof(tr.leafRefs[0])) +
		int64(len(tr.innerRects))*int64(unsafe.Sizeof(tr.innerRects[0])) + int64(len(tr.innerKids))*int64(unsafe.Sizeof(tr.innerKids[0]))
	if got := tr.Bytes(); got != want || len(tr.leafPts) != len(tr.leafRefs) || len(tr.innerRects) != len(tr.innerKids) {
		t.Fatalf("Bytes() = %d, arenas hold %d", got, want)
	}
}
