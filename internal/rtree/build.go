package rtree

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// Build returns the tree over the n points at(0) … at(n-1), point i stored as
// item number i. It is how a point set that is known in full gets indexed:
// the tree is packed top-down instead of grown by insertion (DESIGN.md §4
// D7). Its height is the least h with maxEntries^h >= n. A node at level L
// over a point set S has P = ceil(|S| / maxEntries^L) children, found by
// recursive bisection: the P children are divided ⌊P/2⌋ to the rest, and S
// is cut at the proportional rank along the longer side of its MBR, points
// ordered by that coordinate, then the other, then their item number. Every
// subtree is therefore at least half full — a packed tree meets the R*
// invariants — and the tree is a function of its input alone. A leaf lists
// its points by item number, so a set small enough for one leaf is stored in
// the order given, as insertion would store it. No points (n = 0) make one
// empty leaf. maxEntries must be at least 4.
//
// The arenas are sized exactly, once, from n, and the points are ordered in
// place inside the leaf arena, each cut by Floyd–Rivest selection: a build
// allocates the finished index and nothing else.
func Build(maxEntries, n int, at func(i int) geom.Point) *Tree {
	if maxEntries < 4 {
		panic(fmt.Sprintf("rtree: maxEntries must be >= 4, got %d", maxEntries))
	}
	// The minimum fill is 40 % of the maximum, the R*-tree authors' recommendation.
	t := &Tree{minEntries: max(maxEntries*2/5, 2), maxEntries: maxEntries}
	// full is maxEntries^level, the most points one child of the root indexes.
	level, full := int32(0), 1
	for full*maxEntries < n {
		level, full = level+1, full*maxEntries
	}
	b := packer{t: t, dry: true}
	b.part(-1, level, full, 0, n, 1, geom.Rect{})
	leafSlots, innerSlots := b.count[0]*maxEntries, b.count[1]*maxEntries
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
			b.selectNth(lo, hi, mid, r.Width() < r.Height())
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
		// A leaf lists its points by item number, however the cuts left them.
		t.nodes[id].count = int32(hi - lo)
		pts, refs := t.leafPts[lo:hi], t.leafRefs[lo:hi]
		for i := 1; i < len(refs); i++ {
			p, ref, j := pts[i], refs[i], i
			for ; j > 0 && refs[j-1] > ref; j-- {
				pts[j], refs[j] = pts[j-1], refs[j-1]
			}
			pts[j], refs[j] = p, ref
		}
	}
}

// selectNth moves the slot that orders k-th in [lo, hi) to k, the slots
// that order before it to [lo, k) and the rest to (k, hi), by the order a
// cut sorts by: the cut coordinate (y if byY, else x), then the other, then
// the item number — a total order, so the slots that end up before k do not
// depend on how they got there. It is Floyd and Rivest's SELECT (CACM
// 18(3), 1975): a range of more than 600 slots first selects k within a
// sample around k's expected rank, so the slot then at k splits the range
// close to k and the scans add up to about 1.5 (hi-lo).
func (b *packer) selectNth(lo, hi, k int, byY bool) {
	pts, refs := b.t.leafPts[:hi], b.t.leafRefs[:hi]
	for hi-lo > 1 {
		if hi-lo > 600 {
			n, i := float64(hi-lo), float64(k-lo+1)
			z := math.Log(n)
			s := 0.5 * math.Exp(2*z/3)
			sd := 0.5 * math.Sqrt(z*s*(n-s)/n)
			if i < n/2 {
				sd = -sd
			}
			b.selectNth(max(lo, int(float64(k)-i*s/n+sd)), min(hi, int(float64(k)+(n-i)*s/n+sd)+1), k, byY)
		}
		// Partition around the slot at k, parked at the end meanwhile.
		pivot, pref := pts[k], refs[k]
		pts[k], refs[k] = pts[hi-1], refs[hi-1]
		j := lo + partition(pts[lo:hi-1], refs[lo:hi-1], pivot, pref, byY)
		pts[hi-1], refs[hi-1] = pts[j], refs[j]
		pts[j], refs[j] = pivot, pref
		switch {
		case j < k:
			lo = j + 1
		case j > k:
			hi = j
		default:
			return
		}
	}
}

// partition moves the slots that order before the pivot (pivot, pref) to the
// front and returns how many there are. It is a branch-free Lomuto scan: every
// slot is swapped with the boundary, and the comparison decides only whether
// the boundary moves, so a comparison the branch predictor cannot guess costs
// no misprediction.
func partition(pts []geom.Point, refs []int32, pivot geom.Point, pref int32, byY bool) int {
	pc, po := pivot.X, pivot.Y
	if byY {
		pc, po = po, pc
	}
	refs = refs[:len(pts)]
	j := 0
	for i, p := range pts {
		c, o := p.X, p.Y
		if byY {
			c, o = o, c
		}
		ref := refs[i]
		before := c < pc
		if c == pc {
			before = o < po || o == po && ref < pref
		}
		step := 0
		if before {
			step = 1
		}
		pts[i], refs[i] = pts[j], refs[j]
		pts[j], refs[j] = p, ref
		j += step
	}
	return j
}

func (b *packer) mbr(lo, hi int) geom.Rect {
	r := geom.EmptyRect()
	for _, p := range b.t.leafPts[lo:hi] {
		r = r.Union(geom.RectFromPoint(p))
	}
	return r
}
