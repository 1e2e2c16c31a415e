package rtree

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/geom"
)

// Build and its referee build the same tree, field for field, on the five
// inputs at the daemon's size, where selection samples before it scans
// (TestBuildSweep holds them to each other on the small ones). Selection may
// leave a cut's halves in any order; the tree may not show it.
func TestBuildMatchesQuickselectReferee(t *testing.T) {
	n := 50000
	if testing.Short() {
		n = 5000
	}
	for _, in := range equivInputs {
		pts := in.gen(rand.New(rand.NewSource(7)), n)
		at := func(i int) geom.Point { return pts[i] }
		if !reflect.DeepEqual(Build(DefaultMaxEntries, n, at), buildQuickselect(DefaultMaxEntries, n, at)) {
			t.Fatalf("%s n=%d: Build and the quickselect referee differ", in.name, n)
		}
	}
}

// The experiment sweeps build their worlds' indexes in parallel: eight
// Builds at once still build the referee's tree (run it under -race).
func TestBuildConcurrent(t *testing.T) {
	pts := equivInputs[1].gen(rand.New(rand.NewSource(3)), 5000)
	at := func(i int) geom.Point { return pts[i] }
	want := buildQuickselect(DefaultMaxEntries, len(pts), at)
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !reflect.DeepEqual(Build(DefaultMaxEntries, len(pts), at), want) {
				t.Errorf("concurrent build %d differs from the referee", g)
			}
		}()
	}
	wg.Wait()
}

// buildQuickselect is Build as it was before Floyd–Rivest selection: a
// Lomuto quickselect with the middle slot as pivot. It is the referee Build
// is held to tree for tree, and the slow side of BenchmarkBuild's ratio.
func buildQuickselect(maxEntries, n int, at func(i int) geom.Point) *Tree {
	if maxEntries < 4 {
		panic(fmt.Sprintf("rtree: maxEntries must be >= 4, got %d", maxEntries))
	}
	t := &Tree{minEntries: max(maxEntries*2/5, 2), maxEntries: maxEntries}
	level, full := int32(0), 1
	for full*maxEntries < n {
		level, full = level+1, full*maxEntries
	}
	b := refPacker{t: t, dry: true}
	b.part(-1, level, full, 0, n, 1, geom.Rect{})
	leafSlots, innerSlots := b.count[0]*maxEntries, b.count[1]*maxEntries
	t.nodes = make([]node, 0, b.count[0]+b.count[1])
	t.leafPts, t.leafRefs = make([]geom.Point, leafSlots), make([]int32, leafSlots)
	t.innerRects, t.innerKids = make([]geom.Rect, innerSlots), make([]int32, innerSlots)
	for i := range n {
		t.leafPts[i], t.leafRefs[i] = at(i), int32(i)
	}
	b = refPacker{t: t}
	b.part(-1, level, full, 0, n, 1, b.mbr(0, n))
	end := n
	for id := len(t.nodes) - 1; id >= 0; id-- {
		if nd := t.nodes[id]; nd.level == 0 {
			lo, hi := t.slots(int32(id))
			copy(t.leafPts[lo:hi], t.leafPts[end-int(nd.count):end])
			copy(t.leafRefs[lo:hi], t.leafRefs[end-int(nd.count):end])
			end -= int(nd.count)
		}
	}
	t.size = n
	return t
}

type refPacker struct {
	t     *Tree
	dry   bool
	count [2]int
	byY   bool
}

func (b *refPacker) part(parent, level int32, full, lo, hi, p int, r geom.Rect) {
	t := b.t
	if p > 1 {
		half := p / 2
		mid := lo + (hi-lo)*half/p
		var rl, rr geom.Rect
		if !b.dry {
			b.byY = r.Width() < r.Height()
			b.selectNth(lo, hi, mid)
			rl, rr = b.mbr(lo, mid), b.mbr(mid, hi)
		}
		b.part(parent, level, full, lo, mid, half, rl)
		b.part(parent, level, full, mid, hi, p-half, rr)
		return
	}
	id, run := int32(len(t.nodes)), &b.count[min(level, 1)]
	if !b.dry {
		t.nodes = append(t.nodes, node{level: level, run: int32(*run)})
		if parent >= 0 {
			s := int(t.nodes[parent].run)*t.maxEntries + int(t.nodes[parent].count)
			t.innerRects[s], t.innerKids[s] = r, id
			t.nodes[parent].count++
		}
	}
	*run++
	switch {
	case level > 0:
		b.part(id, level-1, full/t.maxEntries, lo, hi, (hi-lo+full-1)/full, r)
	case !b.dry:
		t.nodes[id].count = int32(hi - lo)
		for i := lo + 1; i < hi; i++ {
			for j := i; j > lo && t.leafRefs[j] < t.leafRefs[j-1]; j-- {
				b.swap(j, j-1)
			}
		}
	}
}

func (b *refPacker) less(i, j int) bool {
	p, q := b.t.leafPts[i], b.t.leafPts[j]
	if b.byY {
		p.X, p.Y, q.X, q.Y = p.Y, p.X, q.Y, q.X
	}
	if p != q {
		return p.X < q.X || p.X == q.X && p.Y < q.Y
	}
	return b.t.leafRefs[i] < b.t.leafRefs[j]
}

func (b *refPacker) swap(i, j int) {
	t := b.t
	t.leafPts[i], t.leafPts[j] = t.leafPts[j], t.leafPts[i]
	t.leafRefs[i], t.leafRefs[j] = t.leafRefs[j], t.leafRefs[i]
}

func (b *refPacker) selectNth(lo, hi, k int) {
	for hi-lo > 1 && k > lo {
		b.swap(lo, lo+(hi-lo)/2)
		store := lo
		for i := lo + 1; i < hi; i++ {
			if b.less(i, lo) {
				store++
				b.swap(i, store)
			}
		}
		b.swap(lo, store)
		switch {
		case k < store:
			hi = store
		case k > store:
			lo = store + 1
		default:
			return
		}
	}
}

func (b *refPacker) mbr(lo, hi int) geom.Rect {
	r := geom.EmptyRect()
	for _, p := range b.t.leafPts[lo:hi] {
		r = r.Union(geom.RectFromPoint(p))
	}
	return r
}
