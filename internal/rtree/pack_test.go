package rtree

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/geom"
	"repro/internal/racebuild"
)

// equivInputs are the point sets Build is held to. The lattice, the
// duplicates and the collinear set make most coordinate comparisons a tie,
// which the item number then breaks.
var equivInputs = []struct {
	name string
	gen  func(rng *rand.Rand, n int) []geom.Point
}{
	{"uniform", func(rng *rand.Rand, n int) []geom.Point { return randPoints(rng, n, 20000) }},
	{"clusters16", func(rng *rand.Rand, n int) []geom.Point {
		centers := randPoints(rng, 16, 20000)
		out := make([]geom.Point, n)
		for i := range out {
			c := centers[rng.Intn(len(centers))]
			out[i] = geom.Pt(c.X+rng.NormFloat64()*400, c.Y+rng.NormFloat64()*400)
		}
		return out
	}},
	{"lattice", func(rng *rand.Rand, n int) []geom.Point {
		side := int(math.Ceil(math.Sqrt(float64(n))))
		out := make([]geom.Point, n)
		for i, j := range rng.Perm(n) {
			out[i] = geom.Pt(float64(j%side)*100, float64(j/side)*100)
		}
		return out
	}},
	{"duplicates", func(rng *rand.Rand, n int) []geom.Point {
		out := make([]geom.Point, n)
		for i := range out {
			out[i] = geom.Pt(7, -3)
		}
		return out
	}},
	// One line, on it about three points per position: a tie on the cut
	// coordinate is a tie on the other too.
	{"collinear", func(rng *rand.Rand, n int) []geom.Point {
		out := make([]geom.Point, n)
		for i := range out {
			s := float64(rng.Intn(n/3 + 1))
			out[i] = geom.Pt(300*s, 200*s+5)
		}
		return out
	}},
}

func sameBits(a, b geom.Rect) bool {
	return math.Float64bits(a.Min.X) == math.Float64bits(b.Min.X) &&
		math.Float64bits(a.Min.Y) == math.Float64bits(b.Min.Y) &&
		math.Float64bits(a.Max.X) == math.Float64bits(b.Max.X) &&
		math.Float64bits(a.Max.Y) == math.Float64bits(b.Max.Y)
}

// liveNodes counts the leaf and inner nodes reachable from nd.
func liveNodes(nd Node) (leaves, inner int) {
	if nd.IsLeaf() {
		return 1, 0
	}
	inner = 1
	for i := 0; i < nd.Len(); i++ {
		l, in := liveNodes(nd.Child(i))
		leaves, inner = leaves+l, inner+in
	}
	return leaves, inner
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
		if ref < 0 || int(ref) >= len(pts) || seen[ref] || p != pts[ref] {
			bad = fmt.Errorf("item %d at %v: out of range, stored twice or misplaced", ref, p)
			return false
		}
		seen[ref] = true
		return true
	})
	root, _ := tr.Root()
	leaves, inner := liveNodes(root)
	if bad == nil && (len(tr.nodes) != leaves+inner || len(tr.leafRefs) != leaves*fanout || len(tr.innerKids) != inner*fanout) {
		bad = fmt.Errorf("%d leaves + %d inner nodes in arenas of %d nodes, %d leaf and %d inner slots",
			leaves, inner, len(tr.nodes), len(tr.leafRefs), len(tr.innerKids))
	}
	return bad
}

// Every size from where TestBuildSweep stops to 2,000 points, at three
// fan-outs, on every input: the packed tree is a valid R*-tree. The full run
// adds the sizes around a power of the fan-out and the large ones.
func TestBuildInvariants(t *testing.T) {
	step := 1
	if testing.Short() {
		step = 7
	}
	for _, in := range equivInputs {
		for _, fanout := range []int{4, 8, 30} {
			sizes := []int{}
			for n := 301; n <= 2000; n += step {
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

// Build of no points is one empty leaf, a tree that can be searched.
func TestBuildEmpty(t *testing.T) {
	tr := Build(8, 0, nil)
	if _, ok := tr.Root(); ok || tr.Len() != 0 || tr.Height() != 1 || tr.Nodes() != 1 || !tr.Bounds().IsEmpty() {
		t.Fatalf("empty build: Len %d Height %d Nodes %d Bounds %v", tr.Len(), tr.Height(), tr.Nodes(), tr.Bounds())
	}
	tr.All(func(geom.Point, int32) bool { t.Fatal("empty tree yielded an item"); return false })
	if err := checkPacked(tr, 8, nil); err != nil {
		t.Fatal(err)
	}
}

// Every fan-out from 4 to 32 over every population from 0 to 300, on each
// input: the packed tree is a valid R*-tree, field for field the quickselect
// referee's (every seventh population under -short), ten random windows
// return what a scan returns, and All yields every item exactly once at its
// own point.
func TestBuildSweep(t *testing.T) {
	for _, in := range equivInputs {
		for fanout := 4; fanout <= 32; fanout++ {
			for n := 0; n <= 300; n++ {
				rng := rand.New(rand.NewSource(int64(fanout*1000 + n)))
				pts := in.gen(rng, n)
				tr := buildPoints(fanout, pts)
				if err := checkPacked(tr, fanout, pts); err != nil {
					t.Fatalf("%s fanout=%d n=%d: %v", in.name, fanout, n, err)
				}
				if (n%7 == 0 || !testing.Short()) && !reflect.DeepEqual(tr, buildQuickselect(fanout, n, func(i int) geom.Point { return pts[i] })) {
					t.Fatalf("%s fanout=%d n=%d: Build and the quickselect referee differ", in.name, fanout, n)
				}
				if n == 0 {
					continue
				}
				b := tr.Bounds()
				corner := func() geom.Point {
					return geom.Pt(b.Min.X+rng.Float64()*b.Width(), b.Min.Y+rng.Float64()*b.Height())
				}
				for range 10 {
					// Half the windows have a stored point as a corner, so an edge carries it.
					q := geom.NewRect(corner(), corner())
					if rng.Intn(2) == 0 {
						q = geom.NewRect(pts[rng.Intn(n)], corner())
					}
					want := 0
					for _, p := range pts {
						if q.Contains(p) {
							want++
						}
					}
					got := 0
					tr.Search(q, func(p geom.Point, ref int32) bool {
						if p != pts[ref] || !q.Contains(p) {
							t.Fatalf("%s fanout=%d n=%d: item %d at %v reported by %v", in.name, fanout, n, ref, p, q)
						}
						got++
						return true
					})
					if got != want {
						t.Fatalf("%s fanout=%d n=%d window %v: %d items, a scan finds %d", in.name, fanout, n, q, got, want)
					}
				}
			}
		}
	}
}

// Build cuts a point set across the longer side of its MBR: 400 points in a
// 10 × 1000 strip, 20 leaves of 20, are cut into 20 slices of the long side,
// each about 50 long, never into slivers that run the strip's whole length.
// The same holds for the strip turned on its side.
func TestBuildCutsTheLongerSide(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tall := make([]geom.Point, 400)
	for i := range tall {
		tall[i] = geom.Pt(rng.Float64()*10, rng.Float64()*1000)
	}
	wide := make([]geom.Point, len(tall))
	for i, p := range tall {
		wide[i] = geom.Pt(p.Y, p.X)
	}
	for _, pts := range [][]geom.Point{tall, wide} {
		root, _ := buildPoints(20, pts).Root()
		for i := 0; i < root.Len(); i++ {
			if r := root.Rect(i); max(r.Width(), r.Height()) > 200 {
				t.Fatalf("leaf %d spans %v, a sliver along the long side", i, r)
			}
		}
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
	if a.level != b.level || a.Len() != b.Len() {
		return fmt.Errorf("%s: level/entries %d/%d vs %d/%d", at, a.level, a.Len(), b.level, b.Len())
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

// BenchmarkBuild packs the daemon-sized index — 50,000 points at the
// paper's fan-out — the way production builds it (pack), and the way it was
// built before Floyd–Rivest selection (ref, the referee).
func BenchmarkBuild(b *testing.B) {
	const n = 50000
	pts := randPoints(rand.New(rand.NewSource(1)), n, 20000)
	at := func(i int) geom.Point { return pts[i] }
	for _, arm := range []struct {
		name  string
		build func(maxEntries, n int, at func(i int) geom.Point) *Tree
	}{{"pack/n=50k", Build}, {"ref/n=50k", buildQuickselect}} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if tr := arm.build(DefaultMaxEntries, n, at); tr.Len() != n {
					b.Fatal("short build")
				}
			}
		})
	}
}
