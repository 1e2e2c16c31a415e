package rtree

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/geom"
	"repro/internal/racebuild"
)

func buildPoints(fanout int, pts []geom.Point) *Tree {
	return Build(fanout, len(pts), func(i int) geom.Point { return pts[i] })
}

// checkPacked holds a packed tree to everything that is true of it by
// construction: the R* invariants, the least height that fits n, every item
// stored once at its own point, and arenas with no node to spare.
func checkPacked(tr *Tree, fanout int, pts []geom.Point) error {
	if err := tr.CheckInvariants(); err != nil {
		return err
	}
	height := 1
	for c := fanout; c < len(pts); c *= fanout {
		height++
	}
	if tr.Len() != len(pts) || tr.Height() != height {
		return fmt.Errorf("Len %d Height %d, want %d and %d", tr.Len(), tr.Height(), len(pts), height)
	}
	seen := make([]bool, len(pts))
	var bad error
	tr.All(func(p geom.Point, ref int32) bool {
		if int(ref) >= len(pts) || seen[ref] || p != pts[ref] {
			bad = fmt.Errorf("item %d at %v: out of range, stored twice or misplaced", ref, p)
		}
		seen[ref] = true
		return bad == nil
	})
	root, _ := tr.Root()
	leaves, inner := liveNodes(root)
	if bad == nil && (len(tr.nodes) != leaves+inner || len(tr.leafRefs) != leaves*tr.stride || len(tr.innerKids) != inner*tr.stride) {
		bad = fmt.Errorf("%d leaves + %d inner nodes in arenas of %d nodes, %d leaf and %d inner slots",
			leaves, inner, len(tr.nodes), len(tr.leafRefs), len(tr.innerKids))
	}
	return bad
}

// Every size from nothing to 2,000 points, at three fan-outs, on inputs where
// no coordinate ties, where every coordinate ties (the lattice) and where
// every point is the same point: the packed tree is a valid R*-tree. The full
// run adds the sizes around a power of the fan-out and the large ones.
func TestBuildInvariants(t *testing.T) {
	step := 1
	if testing.Short() {
		step = 7
	}
	for _, in := range equivInputs {
		for _, fanout := range []int{4, 8, 30} {
			sizes := []int{}
			for n := 0; n <= 2000; n += step {
				sizes = append(sizes, n)
			}
			if !testing.Short() {
				sizes = append(sizes, 4096, 4097, 26999, 27000, 27001, 50000, 200000)
			}
			for _, n := range sizes {
				pts := in.gen(rand.New(rand.NewSource(int64(n))), n)
				if err := checkPacked(buildPoints(fanout, pts), fanout, pts); err != nil {
					t.Fatalf("%s fanout=%d n=%d: %v", in.name, fanout, n, err)
				}
			}
		}
	}
}

// Build of no points is New: an empty tree that can be searched and grown.
func TestBuildEmpty(t *testing.T) {
	tr := Build(8, 0, nil)
	if _, ok := tr.Root(); ok || tr.Len() != 0 || tr.Height() != 1 || !tr.Bounds().IsEmpty() {
		t.Fatalf("empty build: Len %d Height %d Bounds %v", tr.Len(), tr.Height(), tr.Bounds())
	}
	tr.All(func(geom.Point, int32) bool { t.Fatal("empty tree yielded an item"); return false })
	for i := 0; i < 100; i++ {
		tr.InsertPoint(geom.Pt(float64(i%10), float64(i/10)), int32(i))
	}
	if err := tr.CheckInvariants(); err != nil || tr.Len() != 100 {
		t.Fatalf("after 100 inserts: Len %d, %v", tr.Len(), err)
	}
}

// Window search over a packed tree returns what a scan returns, points on the
// window's edge included (the lattice puts many there).
func TestBuildSearchMatchesBruteForce(t *testing.T) {
	for _, in := range equivInputs {
		for _, fanout := range []int{4, 30} {
			rng := rand.New(rand.NewSource(int64(fanout)))
			pts := in.gen(rng, 3000)
			tr := buildPoints(fanout, pts)
			b := tr.Bounds()
			for trial := 0; trial < 200; trial++ {
				// Corners snapped to the lattice pitch, so edges carry points.
				c := geom.Pt(b.Min.X+math.Floor(rng.Float64()*b.Width()/100)*100, b.Min.Y+math.Floor(rng.Float64()*b.Height()/100)*100)
				q := geom.NewRect(c, c.Add(geom.Pt(float64(rng.Intn(12))*100, float64(rng.Intn(12))*100)))
				got := make([]bool, len(pts))
				tr.Search(q, func(p geom.Point, ref int32) bool {
					if got[ref] || !q.Contains(p) {
						t.Fatalf("%s fanout=%d: item %d at %v reported twice or outside %v", in.name, fanout, ref, p, q)
					}
					got[ref] = true
					return true
				})
				for i, p := range pts {
					if got[i] != q.Contains(p) {
						t.Fatalf("%s fanout=%d window %v: item %d at %v reported=%v", in.name, fanout, q, i, p, got[i])
					}
				}
			}
		}
	}
}

// sameShape reports the first difference between two trees read through
// their Node views: levels, entry counts and every inner rectangle bit for
// bit, in slot order, with sameLeaf comparing two leaves in the same place.
func sameShape(a, b Node, sameLeaf func(a, b Node) bool, at string) error {
	if a.Level() != b.Level() || a.Len() != b.Len() {
		return fmt.Errorf("%s: level/entries %d/%d vs %d/%d", at, a.Level(), a.Len(), b.Level(), b.Len())
	}
	if a.IsLeaf() {
		if !sameLeaf(a, b) {
			return fmt.Errorf("%s: leaves differ", at)
		}
		return nil
	}
	for i := 0; i < a.Len(); i++ {
		if !sameBits(a.Rect(i), b.Rect(i)) {
			return fmt.Errorf("%s[%d]: rect %v vs %v", at, i, a.Rect(i), b.Rect(i))
		}
		if err := sameShape(a.Child(i), b.Child(i), sameLeaf, fmt.Sprintf("%s[%d]", at, i)); err != nil {
			return err
		}
	}
	return nil
}

func sameTrees(a, b *Tree, sameLeaf func(a, b Node) bool) error {
	ra, _ := a.Root()
	rb, _ := b.Root()
	return sameShape(ra, rb, sameLeaf, "root")
}

// The packed tree is a function of its input: building twice, on one
// processor or several, gives the same tree bit for bit, slot for slot.
func TestBuildDeterministic(t *testing.T) {
	sameSlots := func(a, b Node) bool {
		for i := 0; i < a.Len(); i++ {
			if a.Ref(i) != b.Ref(i) || !sameBits(a.Rect(i), b.Rect(i)) {
				return false
			}
		}
		return true
	}
	for _, in := range equivInputs {
		pts := in.gen(rand.New(rand.NewSource(5)), 20000)
		first := buildPoints(DefaultMaxEntries, pts)
		for _, procs := range []int{1, 4} {
			prev := runtime.GOMAXPROCS(procs)
			again := buildPoints(DefaultMaxEntries, pts)
			runtime.GOMAXPROCS(prev)
			if err := sameTrees(first, again, sameSlots); err != nil {
				t.Fatalf("%s, GOMAXPROCS %d: %v", in.name, procs, err)
			}
		}
	}
}

// Where coordinates tie the item number decides which side of a cut a point
// falls on: when every point is the same point it alone decides, and the
// leaves, left to right, hold the items in order.
func TestBuildBreaksTiesByItemNumber(t *testing.T) {
	for _, fanout := range []int{4, 8, 30} {
		pts := equivInputs[3].gen(nil, 3000)
		next := int32(0)
		buildPoints(fanout, pts).All(func(_ geom.Point, ref int32) bool {
			if ref != next {
				t.Fatalf("fanout=%d: item %d where %d belongs", fanout, ref, next)
			}
			next++
			return true
		})
	}
}

// When no two points share an x and no two share a y, the item number never
// breaks a tie between two cuts, so the order the points arrive in decides
// nothing but the item numbers: the shuffled input packs into the same
// nodes with the same rectangles, and every leaf holds the same points —
// listed by their new numbers.
func TestBuildIgnoresInputOrder(t *testing.T) {
	for _, fanout := range []int{4, 8, 30} {
		rng := rand.New(rand.NewSource(int64(fanout)))
		const n = 5000
		xs, ys := rng.Perm(n), rng.Perm(n)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(float64(xs[i])*1.5, float64(ys[i])*0.75)
		}
		perm := rng.Perm(n)
		shuffled := make([]geom.Point, n)
		for i, j := range perm {
			shuffled[i] = pts[j]
		}
		sameSet := func(a, b Node) bool {
			items := map[int32]bool{}
			for i := 0; i < a.Len(); i++ {
				items[a.Ref(i)] = a.Point(i) == pts[a.Ref(i)]
			}
			for i := 0; i < b.Len(); i++ {
				if i > 0 && b.Ref(i-1) >= b.Ref(i) || !items[int32(perm[b.Ref(i)])] || b.Point(i) != shuffled[b.Ref(i)] {
					return false
				}
			}
			return true
		}
		if err := sameTrees(buildPoints(fanout, pts), buildPoints(fanout, shuffled), sameSet); err != nil {
			t.Fatalf("fanout=%d: %v", fanout, err)
		}
	}
}

// The PR 15 churn, restarted from a packed tree: insertion and deletion take
// over a tree they did not build, and the invariants hold after every
// mutation while the tree gains and loses levels.
func TestChurnFromPackedTree(t *testing.T) {
	type item struct {
		p  geom.Point
		id int32
	}
	steps := 2500
	if testing.Short() {
		steps = 800
	}
	for _, fanout := range []int{4, 8, 30} {
		rng := rand.New(rand.NewSource(int64(fanout)))
		live := make([]item, 600)
		for i := range live {
			live[i] = item{geom.Pt(float64(rng.Intn(40)), float64(rng.Intn(40))), int32(i)}
		}
		tr := Build(fanout, len(live), func(i int) geom.Point { return live[i].p })
		nextID := int32(len(live))
		for step := 0; step < steps; step++ {
			// Shrink first: the packed nodes are dissolved by condense.
			pInsert := 0.25
			if (step/400)%2 == 1 {
				pInsert = 0.7
			}
			if len(live) == 0 || rng.Float64() < pInsert {
				it := item{geom.Pt(float64(rng.Intn(40)), float64(rng.Intn(40))), nextID}
				nextID++
				live = append(live, it)
				tr.InsertPoint(it.p, it.id)
			} else {
				i := rng.Intn(len(live))
				it := live[i]
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				if !tr.DeletePoint(it.p, it.id) {
					t.Fatalf("fanout=%d step %d: delete of live item %v failed", fanout, step, it)
				}
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("fanout=%d step %d: %v", fanout, step, err)
			}
		}
		want := make(map[int32]geom.Point, len(live))
		for _, it := range live {
			want[it.id] = it.p
		}
		tr.All(func(p geom.Point, ref int32) bool {
			if want[ref] != p {
				t.Fatalf("fanout=%d: item %d at %v, want %v", fanout, ref, p, want[ref])
			}
			delete(want, ref)
			return true
		})
		if len(want) != 0 || tr.Len() != len(live) {
			t.Fatalf("fanout=%d: %d live items missing from the tree, Len %d vs %d", fanout, len(want), tr.Len(), len(live))
		}
	}
}

// A build allocates the index and nothing else: the five arenas and the Tree,
// sized once — no second copy of the points, no growth garbage.
func TestBuildAllocatesTheIndexOnly(t *testing.T) {
	if racebuild.Enabled() {
		t.Skip("race instrumentation allocates")
	}
	rng := rand.New(rand.NewSource(1))
	pts := make([]geom.Point, 50000)
	for i := range pts {
		pts[i] = randPoint(rng, 20000)
	}
	at := func(i int) geom.Point { return pts[i] }
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr := Build(DefaultMaxEntries, len(pts), at)
	runtime.ReadMemStats(&after)
	bytes, allocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	if float64(bytes) > 1.25*float64(tr.Bytes()) || allocs > 8 {
		t.Fatalf("building a %d-byte index allocated %d bytes in %d allocations", tr.Bytes(), bytes, allocs)
	}
	t.Logf("%d points: index %d bytes (%.1f B/point), build allocated %d bytes in %d allocations",
		len(pts), tr.Bytes(), float64(tr.Bytes())/float64(len(pts)), bytes, allocs)
}
