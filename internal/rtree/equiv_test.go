package rtree

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// sameTree reports the first structural difference between two trees: node
// levels, entry counts, entry order, values, and all four coordinates of
// every rectangle compared bit for bit.
func sameTree(a, b *Tree) error {
	if a.size != b.size {
		return fmt.Errorf("size %d vs %d", a.size, b.size)
	}
	return sameNode(a.root, b.root, "root")
}

func sameNode(a, b *node, at string) error {
	if a.leaf != b.leaf || a.level != b.level || len(a.entries) != len(b.entries) {
		return fmt.Errorf("%s: leaf/level/entries %v/%d/%d vs %v/%d/%d",
			at, a.leaf, a.level, len(a.entries), b.leaf, b.level, len(b.entries))
	}
	for i := range a.entries {
		ea, eb := a.entries[i], b.entries[i]
		if !sameBits(ea.rect, eb.rect) {
			return fmt.Errorf("%s[%d]: rect %v vs %v", at, i, ea.rect, eb.rect)
		}
		if ea.data != eb.data {
			return fmt.Errorf("%s[%d]: data %v vs %v", at, i, ea.data, eb.data)
		}
		if (ea.child == nil) != (eb.child == nil) {
			return fmt.Errorf("%s[%d]: child presence differs", at, i)
		}
		if ea.child != nil {
			if err := sameNode(ea.child, eb.child, fmt.Sprintf("%s[%d]", at, i)); err != nil {
				return err
			}
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

// equivInputs are the point and rectangle sets the fast builder is held to
// the reference on. The lattice and the duplicates make every tolerance
// comparison, distance sort and coordinate sort a tie; the rectangles give
// the overlap sums terms that are neither zero nor nested.
var equivInputs = []struct {
	name string
	gen  func(rng *rand.Rand, n int) []geom.Rect
}{
	{"uniform", func(rng *rand.Rand, n int) []geom.Rect {
		out := make([]geom.Rect, n)
		for i := range out {
			out[i] = geom.RectFromPoint(randPoint(rng, 20000))
		}
		return out
	}},
	{"clusters16", func(rng *rand.Rand, n int) []geom.Rect {
		centers := make([]geom.Point, 16)
		for i := range centers {
			centers[i] = randPoint(rng, 20000)
		}
		out := make([]geom.Rect, n)
		for i := range out {
			c := centers[rng.Intn(len(centers))]
			out[i] = geom.RectFromPoint(geom.Pt(c.X+rng.NormFloat64()*400, c.Y+rng.NormFloat64()*400))
		}
		return out
	}},
	{"lattice", func(rng *rand.Rand, n int) []geom.Rect {
		side := int(math.Ceil(math.Sqrt(float64(n))))
		out := make([]geom.Rect, n)
		for i, j := range rng.Perm(n) {
			out[i] = geom.RectFromPoint(geom.Pt(float64(j%side)*100, float64(j/side)*100))
		}
		return out
	}},
	{"duplicates", func(rng *rand.Rand, n int) []geom.Rect {
		out := make([]geom.Rect, n)
		for i := range out {
			out[i] = geom.RectFromPoint(geom.Pt(7, -3))
		}
		return out
	}},
	{"rects", func(rng *rand.Rand, n int) []geom.Rect {
		out := make([]geom.Rect, n)
		for i := range out {
			p := randPoint(rng, 5000)
			out[i] = geom.NewRect(p, p.Add(geom.Pt(rng.Float64()*300, rng.Float64()*300)))
		}
		return out
	}},
}

// The production insertion path must build, node for node and bit for bit,
// the tree the reference builder builds: every shortcut it takes is an
// identity on the reference's floating-point computation.
func TestFastBuildMatchesReference(t *testing.T) {
	n := 6000
	if testing.Short() {
		n = 1500
	}
	for _, in := range equivInputs {
		for _, fanout := range []int{4, 8, 30} {
			for seed := int64(1); seed <= 2; seed++ {
				rects := in.gen(rand.New(rand.NewSource(seed)), n)
				fast, ref := New(fanout), New(fanout)
				for i, r := range rects {
					fast.Insert(r, i)
					ref.refInsert(r, i)
					// Checking along the way pins a divergence to the insert
					// that caused it.
					if i%500 == 499 || i == len(rects)-1 {
						if err := sameTree(fast, ref); err != nil {
							t.Fatalf("%s fanout=%d seed=%d after %d inserts: %v", in.name, fanout, seed, i+1, err)
						}
					}
				}
				if err := fast.CheckInvariants(); err != nil {
					t.Fatalf("%s fanout=%d seed=%d: %v", in.name, fanout, seed, err)
				}
			}
		}
	}
}

// Random insert/delete churn, checked after every mutation: the invariants
// hold and the production tree equals the reference tree. Deletes drive
// condense's orphan reinsertion — whole subtrees re-entering at inner
// levels — through the scratch-reusing insert path, and the shrink phases
// take the tree back down through root collapses.
func TestChurnMatchesReference(t *testing.T) {
	type item struct {
		rect geom.Rect
		id   int
	}
	steps := 2500
	if testing.Short() {
		steps = 800
	}
	for _, fanout := range []int{4, 8, 30} {
		rng := rand.New(rand.NewSource(int64(fanout)))
		fast, ref := New(fanout), New(fanout)
		var live []item
		nextID := 0
		for step := 0; step < steps; step++ {
			// Alternate growth and shrink phases so the tree repeatedly gains
			// and loses levels.
			pInsert := 0.7
			if (step/400)%2 == 1 {
				pInsert = 0.25
			}
			if len(live) == 0 || rng.Float64() < pInsert {
				// Coarse integer coordinates: duplicates and ties are common.
				p := geom.Pt(float64(rng.Intn(40)), float64(rng.Intn(40)))
				r := geom.RectFromPoint(p)
				if rng.Intn(3) == 0 {
					r = geom.NewRect(p, p.Add(geom.Pt(float64(rng.Intn(4)), rng.Float64()*3)))
				}
				it := item{r, nextID}
				nextID++
				live = append(live, it)
				fast.Insert(it.rect, it.id)
				ref.refInsert(it.rect, it.id)
			} else {
				i := rng.Intn(len(live))
				it := live[i]
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				if !fast.Delete(it.rect, it.id) || !ref.refDelete(it.rect, it.id) {
					t.Fatalf("fanout=%d step %d: delete of live item %v failed", fanout, step, it)
				}
			}
			if err := fast.CheckInvariants(); err != nil {
				t.Fatalf("fanout=%d step %d: %v", fanout, step, err)
			}
			if err := sameTree(fast, ref); err != nil {
				t.Fatalf("fanout=%d step %d (%d live): %v", fanout, step, len(live), err)
			}
		}
	}
}

// A steady-state Insert allocates only the nodes it creates: no per-call
// map, path or sort scratch. (The value is pre-boxed: boxing it into the
// any parameter is the caller's allocation.)
func TestInsertSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := NewDefault()
	var val any = "poi"
	for i := 0; i < 20000; i++ {
		tr.InsertPoint(randPoint(rng, 1e5), val)
	}
	const inserts = 10000
	pts := make([]geom.Point, inserts)
	for i := range pts {
		pts[i] = randPoint(rng, 1e5)
	}
	total := testing.AllocsPerRun(1, func() {
		for _, p := range pts {
			tr.InsertPoint(p, val)
		}
	})
	if perOp := total / inserts; perOp > 1 {
		t.Fatalf("Insert allocates %.2f times per call, want <= 1 (node growth only)", perOp)
	} else {
		t.Logf("%.3f allocs per Insert", perOp)
	}
}

// BenchmarkBuild builds the daemon-sized index — 50,000 points at the
// paper's fan-out, one by one — with the reference builder and with the
// production insert path. CI gates the ratio.
func BenchmarkBuild(b *testing.B) {
	const n = 50000
	rng := rand.New(rand.NewSource(1))
	rects := make([]geom.Rect, n)
	vals := make([]any, n)
	for i := range rects {
		rects[i] = geom.RectFromPoint(randPoint(rng, 20000))
		vals[i] = i
	}
	for _, impl := range []struct {
		name   string
		insert func(*Tree, geom.Rect, any)
	}{
		{"ref", (*Tree).refInsert},
		{"fast", (*Tree).Insert},
	} {
		b.Run(impl.name+"/n=50k", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tr := NewDefault()
				for j, r := range rects {
					impl.insert(tr, r, vals[j])
				}
				if tr.Len() != n {
					b.Fatal("short build")
				}
			}
		})
	}
}
