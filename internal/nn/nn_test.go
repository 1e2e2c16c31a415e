package nn

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// buildTree returns a tree over n uniform random points and the point slice.
func buildTree(seed int64, n int, span float64, maxEntries int) (*rtree.Tree, []geom.Point) {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*span, rng.Float64()*span)
	}
	return buildPoints(maxEntries, pts), pts
}

func buildPoints(maxEntries int, pts []geom.Point) *rtree.Tree {
	return rtree.Build(maxEntries, len(pts), func(i int) geom.Point { return pts[i] })
}

// bestFirst, einn and depthFirst drop the page count for the tests that only
// compare results.
func bestFirst(t *rtree.Tree, q geom.Point, k int) []Result {
	res, _ := BestFirst(t, q, k)
	return res
}

func einn(t *rtree.Tree, q geom.Point, k int, b Bounds) []Result {
	res, _ := EINN(t, q, k, b)
	return res
}

func depthFirst(t *rtree.Tree, q geom.Point, k int) []Result {
	res, _ := depthFirstCounted(t, q, k)
	return res
}

// ---------------------------------------------------------------------------
// Depth-first branch-and-bound (Roussopoulos, Kelley and Vincent, SIGMOD
// 1995): the second, structurally different kNN the best-first iterator is
// checked against, and the baseline of its optimality claim. It counts its
// own page reads the way the iterator does: one for the root, one per Child.

// depthFirstCounted returns the k nearest neighbors of q in ascending
// distance order by depth-first branch-and-bound, visiting subtrees in
// MINDIST order and pruning those that cannot beat the current k-th best.
func depthFirstCounted(t *rtree.Tree, q geom.Point, k int) ([]Result, int64) {
	if k <= 0 {
		return nil, 0
	}
	root, ok := t.Root()
	if !ok {
		return nil, 1
	}
	best := &resultHeap{k: k}
	pages := int64(1)
	dfVisit(root, q, best, &pages)
	return best.sorted(), pages
}

func dfVisit(nd rtree.Node, q geom.Point, best *resultHeap, pages *int64) {
	if nd.IsLeaf() {
		for i := 0; i < nd.Len(); i++ {
			d := nd.Rect(i).MinDist(q)
			if best.accepts(d) {
				best.push(Result{Ref: nd.Ref(i), Dist: d})
			}
		}
		return
	}
	// Order children by MINDIST; prune those beyond the current k-th best.
	// For 1NN queries the classic MINMAXDIST rule applies additionally:
	// some object is guaranteed within the smallest sibling MINMAXDIST, so
	// branches whose MINDIST exceeds it can never contain the winner.
	type branch struct {
		idx  int
		dist float64
	}
	branches := make([]branch, 0, nd.Len())
	minMaxBound := math.Inf(1)
	for i := 0; i < nd.Len(); i++ {
		r := nd.Rect(i)
		branches = append(branches, branch{i, r.MinDist(q)})
		if best.k == 1 {
			if mm := minMaxDist(r, q); mm < minMaxBound {
				minMaxBound = mm
			}
		}
	}
	sort.Slice(branches, func(a, b int) bool { return branches[a].dist < branches[b].dist })
	for _, br := range branches {
		if !best.accepts(br.dist) {
			return // remaining branches are even farther
		}
		if br.dist > minMaxBound+geom.Eps {
			return // MINMAXDIST downward pruning (1NN only)
		}
		*pages++
		dfVisit(nd.Child(br.idx), q, best, pages)
	}
}

// resultHeap keeps the k best results seen so far as a max-heap on distance.
type resultHeap struct {
	k     int
	items []Result
}

func (h *resultHeap) accepts(d float64) bool {
	return len(h.items) < h.k || d < h.items[0].Dist
}

func (h *resultHeap) push(r Result) {
	if len(h.items) < h.k {
		h.items = append(h.items, r)
		h.up(len(h.items) - 1)
		return
	}
	if r.Dist >= h.items[0].Dist {
		return
	}
	h.items[0] = r
	h.down(0)
}

func (h *resultHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].Dist >= h.items[i].Dist {
			return
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func (h *resultHeap) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && h.items[l].Dist > h.items[largest].Dist {
			largest = l
		}
		if r < n && h.items[r].Dist > h.items[largest].Dist {
			largest = r
		}
		if largest == i {
			return
		}
		h.items[i], h.items[largest] = h.items[largest], h.items[i]
		i = largest
	}
}

func (h *resultHeap) sorted() []Result {
	out := append([]Result(nil), h.items...)
	sort.Slice(out, func(i, j int) bool { return out[i].Dist < out[j].Dist })
	return out
}

func sameResults(t *testing.T, label string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d results, want %d", label, len(got), len(want))
	}
	for i := range got {
		// Distances must agree; with random points ties are measure-zero but
		// we still compare by distance, not identity, to be safe.
		if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
			t.Fatalf("%s: result %d dist %v, want %v", label, i, got[i].Dist, want[i].Dist)
		}
	}
}

func TestKNNMatchesBruteForce(t *testing.T) {
	for _, cfg := range []struct {
		seed      int64
		n, fanout int
	}{
		{1, 500, 4}, {2, 500, 30}, {3, 5000, 8}, {4, 37, 30}, {5, 1, 4},
	} {
		tree, _ := buildTree(cfg.seed, cfg.n, 1000, cfg.fanout)
		rng := rand.New(rand.NewSource(cfg.seed + 100))
		for trial := 0; trial < 40; trial++ {
			q := geom.Pt(rng.Float64()*1200-100, rng.Float64()*1200-100)
			k := 1 + rng.Intn(20)
			want := BruteForce(tree, q, k)
			sameResults(t, "BestFirst", bestFirst(tree, q, k), want)
			sameResults(t, "DepthFirst", depthFirst(tree, q, k), want)
		}
	}
}

func TestBestFirstAscendingOrder(t *testing.T) {
	tree, _ := buildTree(7, 2000, 500, 16)
	var it Iterator[rtree.Node]
	it.Reset(tree, geom.Pt(250, 250), NoBounds)
	prev := -1.0
	count := 0
	for {
		r, ok := it.Next()
		if !ok {
			break
		}
		if r.Dist < prev-1e-12 {
			t.Fatalf("distances not non-decreasing: %v after %v", r.Dist, prev)
		}
		prev = r.Dist
		count++
	}
	if count != 2000 {
		t.Fatalf("iterator yielded %d, want 2000", count)
	}
	// Exhausted iterator stays exhausted.
	if _, ok := it.Next(); ok {
		t.Fatal("Next after exhaustion returned a result")
	}
}

// The page-count contract at the edges: k <= 0 performs no traversal (0
// pages), an empty tree still costs the root fetch (1 page).
func TestKZeroAndEmptyTree(t *testing.T) {
	tree, _ := buildTree(1, 100, 100, 4)
	if got, pages := BestFirst(tree, geom.Pt(0, 0), 0); got != nil || pages != 0 {
		t.Errorf("k=0 should return nil and read 0 pages, got %v, %d", got, pages)
	}
	if got, pages := depthFirstCounted(tree, geom.Pt(0, 0), -1); got != nil || pages != 0 {
		t.Errorf("negative k should return nil and read 0 pages, got %v, %d", got, pages)
	}
	empty := rtree.Build(rtree.DefaultMaxEntries, 0, nil)
	if got, pages := BestFirst(empty, geom.Pt(0, 0), 5); len(got) != 0 || pages != 1 {
		t.Errorf("empty tree should return no results for 1 page, got %v, %d", got, pages)
	}
	if got, pages := depthFirstCounted(empty, geom.Pt(0, 0), 5); len(got) != 0 || pages != 1 {
		t.Errorf("empty tree should return no results for 1 page, got %v, %d", got, pages)
	}
	if got := BruteForce(empty, geom.Pt(0, 0), 5); len(got) != 0 {
		t.Errorf("empty tree brute force returned %v", got)
	}
}

func TestKLargerThanTree(t *testing.T) {
	tree, _ := buildTree(2, 10, 100, 4)
	for _, algo := range []struct {
		name string
		fn   func() []Result
	}{
		{"BestFirst", func() []Result { return bestFirst(tree, geom.Pt(50, 50), 25) }},
		{"DepthFirst", func() []Result { return depthFirst(tree, geom.Pt(50, 50), 25) }},
	} {
		got := algo.fn()
		if len(got) != 10 {
			t.Errorf("%s: got %d results, want all 10", algo.name, len(got))
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i].Dist < got[j].Dist }) {
			t.Errorf("%s: results not sorted", algo.name)
		}
	}
}

// EINN with a lower bound must return exactly the brute-force results whose
// distance exceeds the bound — the contract the SENN client relies on when
// merging certain entries with server results.
func TestEINNLowerBound(t *testing.T) {
	tree, pts := buildTree(11, 3000, 1000, 30)
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		k := 1 + rng.Intn(10)
		full := BruteForce(tree, q, k+30)
		lowerIdx := rng.Intn(20)
		lower := full[lowerIdx].Dist
		got := einn(tree, q, k, Bounds{Lower: lower, HasLower: true})
		var want []Result
		for _, r := range full {
			if r.Dist > lower && len(want) < k {
				want = append(want, r)
			}
		}
		sameResults(t, "EINN lower", got, want)
	}
	_ = pts
}

// A valid upper bound (at least the true k-th NN distance) must not change
// the result set.
func TestEINNValidUpperBoundPreservesResults(t *testing.T) {
	tree, _ := buildTree(13, 3000, 1000, 30)
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 30; trial++ {
		q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		k := 1 + rng.Intn(10)
		want := BruteForce(tree, q, k)
		upper := want[len(want)-1].Dist * (1 + rng.Float64())
		got := einn(tree, q, k, Bounds{Upper: upper, HasUpper: true})
		sameResults(t, "EINN upper", got, want)
	}
}

// A tight upper bound must cut the search off: results farther than the
// bound are never reported.
func TestEINNUpperBoundCutsOff(t *testing.T) {
	tree, _ := buildTree(17, 1000, 1000, 8)
	q := geom.Pt(500, 500)
	full := BruteForce(tree, q, 50)
	upper := full[9].Dist
	got := einn(tree, q, 50, Bounds{Upper: upper, HasUpper: true})
	if len(got) > 11 {
		t.Fatalf("upper bound ignored: got %d results", len(got))
	}
	for _, r := range got {
		if r.Dist > upper+1e-9 {
			t.Fatalf("result at %v beyond upper bound %v", r.Dist, upper)
		}
	}
}

// Both bounds combined: the EINN contract used by Algorithm 1 line 19.
func TestEINNBothBounds(t *testing.T) {
	tree, _ := buildTree(19, 4000, 2000, 30)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		q := geom.Pt(rng.Float64()*2000, rng.Float64()*2000)
		k := 2 + rng.Intn(8)
		full := BruteForce(tree, q, 60)
		nCertain := rng.Intn(k)
		lower := 0.0
		if nCertain > 0 {
			lower = full[nCertain-1].Dist
		}
		upper := full[k-1].Dist // true kth NN distance: always valid
		got := einn(tree, q, k-nCertain, Bounds{
			Lower: lower, HasLower: nCertain > 0,
			Upper: upper, HasUpper: true,
		})
		want := full[nCertain:k]
		sameResults(t, "EINN both", got, want)
	}
}

// EINN with valid bounds must never access more pages than plain INN on the
// same query — the claim Figure 17 quantifies.
func TestEINNAccessesAtMostINN(t *testing.T) {
	tree, _ := buildTree(23, 20000, 10000, 30)
	rng := rand.New(rand.NewSource(31))
	totalINN, totalEINN := int64(0), int64(0)
	for trial := 0; trial < 50; trial++ {
		q := geom.Pt(rng.Float64()*10000, rng.Float64()*10000)
		k := 5 + rng.Intn(10)
		full := BruteForce(tree, q, k)
		nCertain := 1 + rng.Intn(k-1)
		b := Bounds{
			Lower: full[nCertain-1].Dist, HasLower: true,
			Upper: full[k-1].Dist, HasUpper: true,
		}
		_, innAcc := BestFirst(tree, q, k)
		_, einnAcc := EINN(tree, q, k-nCertain, b)
		if einnAcc > innAcc {
			t.Fatalf("EINN accessed %d pages, INN %d", einnAcc, innAcc)
		}
		totalINN += innAcc
		totalEINN += einnAcc
	}
	if totalEINN > totalINN {
		t.Errorf("EINN total accesses %d exceed INN %d", totalEINN, totalINN)
	}
}

// Downward pruning must deliver a strict page-access win when the certain
// circle C_r covers entire leaf MBRs: a dense cluster of already-known POIs
// near the query point is skipped wholesale by the MAXDIST rule while plain
// INN pages through it.
func TestEINNDownwardPruningStrictWin(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	q := geom.Pt(0, 0)
	// 2000 points packed within 100 m of the query point, all of which the
	// client already knows (they fall inside the lower bound).
	var pts []geom.Point
	for i := 0; i < 2000; i++ {
		th := rng.Float64() * 2 * math.Pi
		rad := 100 * math.Sqrt(rng.Float64())
		pts = append(pts, geom.Pt(rad*math.Cos(th), rad*math.Sin(th)))
	}
	// A handful of points farther out: the part the server must produce.
	for i := 0; i < 20; i++ {
		th := rng.Float64() * 2 * math.Pi
		pts = append(pts, geom.Pt(300*math.Cos(th), 300*math.Sin(th)))
	}
	tree := buildPoints(8, pts)
	k := 2005
	full := BruteForce(tree, q, k)
	lower := full[1999].Dist
	_, innAcc := BestFirst(tree, q, k)
	got, einnAcc := EINN(tree, q, 5, Bounds{Lower: lower, HasLower: true, Upper: full[k-1].Dist, HasUpper: true})
	sameResults(t, "strict win results", got, full[2000:])
	if einnAcc*2 >= innAcc {
		t.Errorf("expected EINN (%d accesses) to beat INN (%d) by more than 2x", einnAcc, innAcc)
	}
}

// Best-first must be optimal: never more page accesses than depth-first.
func TestBestFirstOptimality(t *testing.T) {
	tree, _ := buildTree(37, 10000, 5000, 30)
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		q := geom.Pt(rng.Float64()*5000, rng.Float64()*5000)
		k := 1 + rng.Intn(15)
		bf, bfAcc := BestFirst(tree, q, k)
		df, dfAcc := depthFirstCounted(tree, q, k)
		sameResults(t, "BF vs DF", bf, df)
		if bfAcc > dfAcc {
			t.Errorf("best-first accessed %d > depth-first %d (k=%d)", bfAcc, dfAcc, k)
		}
	}
}

func TestDuplicateDistances(t *testing.T) {
	// Points arranged on a circle: all equidistant from the center.
	center := geom.Pt(100, 100)
	pts := make([]geom.Point, 16)
	for i := range pts {
		th := 2 * math.Pi * float64(i) / 16
		pts[i] = geom.Pt(center.X+50*math.Cos(th), center.Y+50*math.Sin(th))
	}
	tree := buildPoints(4, pts)
	got := bestFirst(tree, center, 7)
	if len(got) != 7 {
		t.Fatalf("got %d results", len(got))
	}
	for _, r := range got {
		if math.Abs(r.Dist-50) > 1e-9 {
			t.Errorf("distance %v, want 50", r.Dist)
		}
	}
}

func BenchmarkBestFirstK5(b *testing.B) {
	tree, _ := buildTree(1, 50000, 48280, 30)
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := geom.Pt(rng.Float64()*48280, rng.Float64()*48280)
		BestFirst(tree, q, 5)
	}
}

func BenchmarkEINNWithBounds(b *testing.B) {
	tree, _ := buildTree(1, 50000, 48280, 30)
	rng := rand.New(rand.NewSource(2))
	// Precompute a pool of queries with realistic bounds so the measured
	// loop contains only the EINN search itself.
	type qb struct {
		q geom.Point
		b Bounds
	}
	pool := make([]qb, 256)
	for i := range pool {
		q := geom.Pt(rng.Float64()*48280, rng.Float64()*48280)
		full := bestFirst(tree, q, 5)
		pool[i] = qb{q: q, b: Bounds{
			Lower: full[1].Dist, HasLower: true,
			Upper: full[4].Dist, HasUpper: true,
		}}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pool[i%len(pool)]
		EINN(tree, p.q, 3, p.b)
	}
}
