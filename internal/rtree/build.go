package rtree

import "repro/internal/geom"

// Build returns the tree over the n points at(0) … at(n-1), point i stored as
// item number i. It is how a point set that is known in full gets indexed:
// the tree is packed top-down instead of grown by insertion (DESIGN.md §4
// D7). Its height is the least h with maxEntries^h >= n. A node at level L
// over a point set S has P = ceil(|S| / maxEntries^L) children, found by
// recursive bisection: the P children are divided ⌊P/2⌋ to the rest, and S
// is cut at the proportional rank along the longer side of its MBR, points
// ordered by that coordinate, then the other, then their item number. Every
// subtree is therefore at least half full — a packed tree meets the
// invariants InsertPoint and DeletePoint maintain, and may be mutated by
// them — and the tree is a function of its input alone. A leaf lists its
// points by item number, so a set small enough for one leaf is stored in the
// order given, as insertion would store it.
//
// The arenas are sized exactly, once, from n, and the points are ordered in
// place inside the leaf arena: a build allocates the finished index and
// nothing else.
func Build(maxEntries, n int, at func(i int) geom.Point) *Tree {
	if n == 0 {
		return New(maxEntries)
	}
	t := newTree(maxEntries)
	// full is maxEntries^level, the most points one child of the root indexes.
	level, full := int32(0), 1
	for full*maxEntries < n {
		level, full = level+1, full*maxEntries
	}
	b := packer{t: t, dry: true}
	b.part(-1, level, full, 0, n, 1, geom.Rect{})
	leafSlots, innerSlots := b.count[0]*t.stride, b.count[1]*t.stride
	t.nodes = make([]node, 0, b.count[0]+b.count[1])
	t.leafPts, t.leafRefs = make([]geom.Point, leafSlots), make([]int32, leafSlots)
	t.innerRects, t.innerKids = make([]geom.Rect, innerSlots), make([]int32, innerSlots)

	// The points go into the first n leaf slots, are ordered there, and then
	// move to their leaves' runs, last leaf first: no run starts before its points.
	for i := range n {
		t.leafPts[i], t.leafRefs[i] = at(i), int32(i)
	}
	b = packer{t: t}
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

// packer is one Build's state. A dry pass recurses over counts alone, for sizing.
type packer struct {
	t     *Tree
	dry   bool
	count [2]int // leaves, inner nodes so far: the next run of each arena
	byY   bool   // the coordinate less orders by
}

// part packs points [lo, hi) of the leaf arena, whose MBR is r, into p sibling
// subtrees rooted at the given level under parent. full is maxEntries^level.
func (b *packer) part(parent, level int32, full, lo, hi, p int, r geom.Rect) {
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
	// One subtree: its root, then its children. The first emitted, node 0, is t.root.
	id, run := int32(len(t.nodes)), &b.count[min(level, 1)]
	if !b.dry {
		t.nodes = append(t.nodes, node{level: level, run: int32(*run)})
		if parent >= 0 {
			t.push(parent, entry{rect: r, ref: id})
		}
	}
	*run++
	switch {
	case level > 0:
		b.part(id, level-1, full/t.maxEntries, lo, hi, (hi-lo+full-1)/full, r)
	case !b.dry:
		// A leaf lists its points by item number, however the cuts left them.
		t.nodes[id].count = int32(hi - lo)
		for i := lo + 1; i < hi; i++ {
			for j := i; j > lo && t.leafRefs[j] < t.leafRefs[j-1]; j-- {
				b.swap(j, j-1)
			}
		}
	}
}

// less orders leaf-arena slots by the cut coordinate, then the other, then
// the item number: a total order, no two slots compare equal.
func (b *packer) less(i, j int) bool {
	p, q := b.t.leafPts[i], b.t.leafPts[j]
	if b.byY {
		p.X, p.Y, q.X, q.Y = p.Y, p.X, q.Y, q.X
	}
	if p != q {
		return p.X < q.X || p.X == q.X && p.Y < q.Y
	}
	return b.t.leafRefs[i] < b.t.leafRefs[j]
}

func (b *packer) swap(i, j int) {
	t := b.t
	t.leafPts[i], t.leafPts[j] = t.leafPts[j], t.leafPts[i]
	t.leafRefs[i], t.leafRefs[j] = t.leafRefs[j], t.leafRefs[i]
}

// selectNth rearranges slots [lo, hi) so that each of [lo, k) orders before
// each of [k, hi): quickselect, the middle slot as pivot.
func (b *packer) selectNth(lo, hi, k int) {
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

func (b *packer) mbr(lo, hi int) geom.Rect {
	r := geom.EmptyRect()
	for _, p := range b.t.leafPts[lo:hi] {
		r = r.Union(geom.RectFromPoint(p))
	}
	return r
}
