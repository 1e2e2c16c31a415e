package rtree

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/racebuild"
)

// sameTree reports the first structural difference between the production
// tree, read through its Node view, and the reference tree: node levels,
// entry counts, entry order, item numbers, and every coordinate of every
// point and rectangle compared bit for bit.
func sameTree(a *Tree, b *refTree) error {
	if a.size != b.size {
		return fmt.Errorf("size %d vs %d", a.size, b.size)
	}
	root, _ := a.Root()
	return sameNode(root, b.root, "root")
}

func sameNode(a Node, b *refNode, at string) error {
	if a.IsLeaf() != b.leaf || a.Level() != b.level || a.Len() != len(b.entries) {
		return fmt.Errorf("%s: leaf/level/entries %v/%d/%d vs %v/%d/%d",
			at, a.IsLeaf(), a.Level(), a.Len(), b.leaf, b.level, len(b.entries))
	}
	for i, eb := range b.entries {
		if !sameBits(a.Rect(i), eb.rect) {
			return fmt.Errorf("%s[%d]: rect %v vs %v", at, i, a.Rect(i), eb.rect)
		}
		if b.leaf {
			if a.Ref(i) != eb.ref {
				return fmt.Errorf("%s[%d]: ref %d vs %d", at, i, a.Ref(i), eb.ref)
			}
			continue
		}
		if eb.child == nil {
			return fmt.Errorf("%s[%d]: reference inner entry has no child", at, i)
		}
		if err := sameNode(a.Child(i), eb.child, fmt.Sprintf("%s[%d]", at, i)); err != nil {
			return err
		}
	}
	return nil
}

func sameBits(a, b geom.Rect) bool {
	return math.Float64bits(a.Min.X) == math.Float64bits(b.Min.X) &&
		math.Float64bits(a.Min.Y) == math.Float64bits(b.Min.Y) &&
		math.Float64bits(a.Max.X) == math.Float64bits(b.Max.X) &&
		math.Float64bits(a.Max.Y) == math.Float64bits(b.Max.Y)
}

// equivInputs are the point sets the fast builder is held to the reference
// on. The lattice and the duplicates make every tolerance comparison,
// distance sort and coordinate sort a tie.
var equivInputs = []struct {
	name string
	gen  func(rng *rand.Rand, n int) []geom.Point
}{
	{"uniform", func(rng *rand.Rand, n int) []geom.Point {
		out := make([]geom.Point, n)
		for i := range out {
			out[i] = randPoint(rng, 20000)
		}
		return out
	}},
	{"clusters16", func(rng *rand.Rand, n int) []geom.Point {
		centers := make([]geom.Point, 16)
		for i := range centers {
			centers[i] = randPoint(rng, 20000)
		}
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
}

// The production insertion path must build, node for node and bit for bit,
// the tree the reference builder builds: every shortcut it takes is an
// identity on the reference's floating-point computation, and the arena
// layout changes where entries live, not which entries a node holds. The
// full run adds the daemon-sized builds: 50,000 uniform and 50,000 clustered
// points at the paper's fan-out.
func TestFastBuildMatchesReference(t *testing.T) {
	type build struct {
		input, fanout, n int
		seed             int64
	}
	n := 6000
	if testing.Short() {
		n = 1500
	}
	var builds []build
	for in := range equivInputs {
		for _, fanout := range []int{4, 8, 30} {
			for seed := int64(1); seed <= 2; seed++ {
				builds = append(builds, build{in, fanout, n, seed})
			}
		}
	}
	if !testing.Short() {
		builds = append(builds, build{0, DefaultMaxEntries, 50000, 1}, build{1, DefaultMaxEntries, 50000, 1})
	}
	for _, b := range builds {
		in := equivInputs[b.input]
		pts := in.gen(rand.New(rand.NewSource(b.seed)), b.n)
		fast, ref := New(b.fanout), newRefTree(b.fanout)
		for i, p := range pts {
			fast.InsertPoint(p, int32(i))
			ref.refInsert(geom.RectFromPoint(p), int32(i))
			// Checking along the way pins a divergence to the insert
			// that caused it.
			if i%500 == 499 || i == len(pts)-1 {
				if err := sameTree(fast, ref); err != nil {
					t.Fatalf("%s fanout=%d seed=%d after %d inserts: %v", in.name, b.fanout, b.seed, i+1, err)
				}
			}
		}
		if err := fast.CheckInvariants(); err != nil {
			t.Fatalf("%s fanout=%d seed=%d: %v", in.name, b.fanout, b.seed, err)
		}
	}
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

// Random insert/delete churn, checked after every mutation: the invariants
// hold and the production tree equals the reference tree. Deletes drive
// condense's orphan reinsertion — whole subtrees re-entering at inner
// levels — through the scratch-reusing insert path, and the shrink phases
// take the tree back down through root collapses. Dissolved nodes go on the
// free lists and come back: the node table is only ever as long as the most
// leaves plus the most inner nodes the tree has held at once.
func TestChurnMatchesReference(t *testing.T) {
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
		fast, ref := New(fanout), newRefTree(fanout)
		var live []item
		var nextID int32
		maxLeaves, maxInner := 0, 0
		for step := 0; step < steps; step++ {
			// Alternate growth and shrink phases so the tree repeatedly gains
			// and loses levels.
			pInsert := 0.7
			if (step/400)%2 == 1 {
				pInsert = 0.25
			}
			if len(live) == 0 || rng.Float64() < pInsert {
				// Coarse integer coordinates: duplicates and ties are common.
				it := item{geom.Pt(float64(rng.Intn(40)), float64(rng.Intn(40))), nextID}
				nextID++
				live = append(live, it)
				fast.InsertPoint(it.p, it.id)
				ref.refInsert(geom.RectFromPoint(it.p), it.id)
			} else {
				i := rng.Intn(len(live))
				it := live[i]
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				if !fast.DeletePoint(it.p, it.id) || !ref.refDelete(geom.RectFromPoint(it.p), it.id) {
					t.Fatalf("fanout=%d step %d: delete of live item %v failed", fanout, step, it)
				}
			}
			if err := fast.CheckInvariants(); err != nil {
				t.Fatalf("fanout=%d step %d: %v", fanout, step, err)
			}
			if err := sameTree(fast, ref); err != nil {
				t.Fatalf("fanout=%d step %d (%d live): %v", fanout, step, len(live), err)
			}
			root, _ := fast.Root()
			leaves, inner := liveNodes(root)
			maxLeaves, maxInner = max(maxLeaves, leaves), max(maxInner, inner)
			if len(fast.nodes) != maxLeaves+maxInner {
				t.Fatalf("fanout=%d step %d: node table holds %d nodes, high-water mark is %d leaves + %d inner",
					fanout, step, len(fast.nodes), maxLeaves, maxInner)
			}
		}
	}
}

// growArenas gives every arena room for extra more nodes of either kind.
func growArenas(t *Tree, extra int) {
	t.nodes = slices.Grow(t.nodes, 2*extra)
	t.leafPts = slices.Grow(t.leafPts, extra*t.stride)
	t.leafRefs = slices.Grow(t.leafRefs, extra*t.stride)
	t.innerRects = slices.Grow(t.innerRects, extra*t.stride)
	t.innerKids = slices.Grow(t.innerKids, extra*t.stride)
}

// An Insert allocates nothing once the arenas have room: no per-call map,
// path or sort scratch, no node objects, no boxed values.
func TestInsertSteadyStateAllocs(t *testing.T) {
	if racebuild.Enabled() {
		t.Skip("race instrumentation allocates")
	}
	rng := rand.New(rand.NewSource(1))
	tr := NewDefault()
	for i := 0; i < 20000; i++ {
		tr.InsertPoint(randPoint(rng, 1e5), int32(i))
	}
	const inserts = 10000
	pts := make([]geom.Point, inserts)
	for i := range pts {
		pts[i] = randPoint(rng, 1e5)
	}
	growArenas(tr, inserts)
	if total := testing.AllocsPerRun(1, func() {
		for i, p := range pts {
			tr.InsertPoint(p, int32(20000+i))
		}
	}); total != 0 {
		t.Fatalf("%d inserts into grown arenas allocated %.0f times, want 0", inserts, total)
	}
}

// A build allocates when an arena or a scratch slice grows — a number that
// follows the logarithm of the node count — never per point.
func TestBuildAllocsFollowNodes(t *testing.T) {
	if racebuild.Enabled() {
		t.Skip("race instrumentation allocates")
	}
	rng := rand.New(rand.NewSource(1))
	pts := make([]geom.Point, 50000)
	for i := range pts {
		pts[i] = randPoint(rng, 20000)
	}
	var nodes int
	allocs := testing.AllocsPerRun(1, func() {
		tr := NewDefault()
		for i, p := range pts {
			tr.InsertPoint(p, int32(i))
		}
		nodes = len(tr.nodes)
	})
	if allocs > float64(nodes)/10 {
		t.Fatalf("building %d points into %d nodes allocated %.0f times", len(pts), nodes, allocs)
	}
	t.Logf("%d points, %d nodes, %.0f allocations", len(pts), nodes, allocs)
}

// BenchmarkBuild builds the daemon-sized index — 50,000 points at the
// paper's fan-out — one by one with the reference builder and with the
// production insert path, and all at once with Build, which is how
// production builds it. CI gates both ratios.
func BenchmarkBuild(b *testing.B) {
	const n = 50000
	rng := rand.New(rand.NewSource(1))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = randPoint(rng, 20000)
	}
	b.Run("ref/n=50k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr := newRefTree(DefaultMaxEntries)
			for j, p := range pts {
				tr.refInsert(geom.RectFromPoint(p), int32(j))
			}
			if tr.size != n {
				b.Fatal("short build")
			}
		}
	})
	b.Run("fast/n=50k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr := NewDefault()
			for j, p := range pts {
				tr.InsertPoint(p, int32(j))
			}
			if tr.Len() != n {
				b.Fatal("short build")
			}
		}
	})
	b.Run("pack/n=50k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if tr := buildPoints(DefaultMaxEntries, pts); tr.Len() != n {
				b.Fatal("short build")
			}
		}
	})
}
