// Package rtreetest is the R*-tree grown one insertion at a time: the
// algorithm of Beckmann, Kriegel, Schneider and Seeger (SIGMOD 1990) as
// printed — choose-subtree by overlap enlargement at the leaf parents,
// forced reinsertion on the first overflow of a level, the topological
// split — over heap nodes that own a slice of entries and point at their
// children. It is the referee that the packed production index
// (rtree.Build) is measured against, and test-support code only: nothing
// but _test.go files may import it (scripts/fences.sh).
//
// Tree has the node view nn.Iterator traverses (Root, Node, and a *Node
// with IsLeaf, Len, Rect, Point and Ref), so the same best-first search
// counts pages on both shapes.
package rtreetest

import (
	"math"
	"sort"

	"repro/internal/geom"
)

// reinsertFraction is the share of entries evicted by forced reinsertion on
// the first overflow of a level, p = 30 % of M as the R*-tree authors
// recommend.
const reinsertFraction = 0.3

// entry is a slot in a Node: a bounding rectangle plus either a child node
// (inner levels) or the item number (leaf level).
type entry struct {
	rect  geom.Rect
	child *Node // nil at leaf level
	ref   int32
}

// Node is one tree node; Tree.Node(n.id) returns it.
type Node struct {
	id      int32
	level   int // 0 = leaf
	entries []entry
}

// IsLeaf reports whether the node's entries carry items rather than children.
func (n *Node) IsLeaf() bool { return n.level == 0 }

// Len returns the number of entries in the node.
func (n *Node) Len() int { return len(n.entries) }

// Rect returns the MBR of entry i.
func (n *Node) Rect(i int) geom.Rect { return n.entries[i].rect }

// Point returns the location of leaf entry i.
func (n *Node) Point(i int) geom.Point { return n.entries[i].rect.Min }

// Ref returns the item number of leaf entry i, or the Tree.Node reference of
// inner entry i's child.
func (n *Node) Ref(i int) int32 {
	if n.level == 0 {
		return n.entries[i].ref
	}
	return n.entries[i].child.id
}

func (n *Node) bounds() geom.Rect { return boundsOf(n.entries) }

// Tree is an R*-tree built by insertion.
type Tree struct {
	root       *Node
	nodes      []*Node // by id
	minEntries int
	maxEntries int
}

// Insert returns the tree grown by inserting at(0) … at(n-1) in that order,
// point i as item number i: the tree rtree.Build(maxEntries, n, at) packs,
// populated the way an R*-tree library offers. The minimum fill is 40 % of
// maxEntries, as Build's.
func Insert(maxEntries, n int, at func(i int) geom.Point) *Tree {
	t := &Tree{minEntries: max(maxEntries*2/5, 2), maxEntries: maxEntries}
	t.root = t.newNode(0, nil)
	for i := range n {
		t.insert(entry{rect: geom.RectFromPoint(at(i)), ref: int32(i)}, 0, make(map[int]bool))
	}
	return t
}

func (t *Tree) newNode(level int, entries []entry) *Node {
	n := &Node{id: int32(len(t.nodes)), level: level, entries: entries}
	t.nodes = append(t.nodes, n)
	return n
}

// Root returns the root node; ok is false for a tree with no entries.
func (t *Tree) Root() (*Node, bool) { return t.root, len(t.root.entries) > 0 }

// Node fetches the node an inner entry's Ref names.
func (t *Tree) Node(ref int32) *Node { return t.nodes[ref] }

// tightenPath recomputes the parent rectangles covering path[idx] up to the
// root.
func (t *Tree) tightenPath(path []*Node, idx int) {
	for i := idx - 1; i >= 0; i-- {
		parent, child := path[i], path[i+1]
		for j := range parent.entries {
			if parent.entries[j].child == child {
				parent.entries[j].rect = child.bounds()
				break
			}
		}
	}
}

// insert inserts e at the given level. reinserted tracks which levels
// already performed a forced reinsertion during the current outer insert so
// each level reinserts at most once (the R* rule).
func (t *Tree) insert(e entry, level int, reinserted map[int]bool) {
	path := t.choosePath(e.rect, level)
	target := path[len(path)-1]
	target.entries = append(target.entries, e)
	// Walk back up, handling overflow and tightening parent rectangles.
	for i := len(path) - 1; i >= 0; i-- {
		if len(path[i].entries) > t.maxEntries {
			t.overflow(path, i, reinserted)
		}
	}
}

// choosePath descends from the root to the node at the target level whose
// entry chain should receive a rectangle, returning the nodes along the way.
func (t *Tree) choosePath(r geom.Rect, level int) []*Node {
	path := []*Node{t.root}
	n := t.root
	for n.level > level {
		best := t.chooseSubtree(n, r)
		n.entries[best].rect = n.entries[best].rect.Union(r)
		n = n.entries[best].child
		path = append(path, n)
	}
	return path
}

// chooseSubtree follows R*: minimum overlap enlargement when the children are
// leaves, minimum area enlargement otherwise, with area tie-breaks.
func (t *Tree) chooseSubtree(n *Node, r geom.Rect) int {
	if n.level == 1 {
		// Children are leaves: minimize overlap enlargement.
		best, bestOverlap, bestEnl, bestArea := -1, math.Inf(1), math.Inf(1), math.Inf(1)
		for i := range n.entries {
			enlarged := n.entries[i].rect.Union(r)
			var overlap, overlapNew float64
			for j := range n.entries {
				if j == i {
					continue
				}
				overlap += intersect(n.entries[i].rect, n.entries[j].rect).Area()
				overlapNew += intersect(enlarged, n.entries[j].rect).Area()
			}
			dOverlap := overlapNew - overlap
			enl := enlargement(n.entries[i].rect, r)
			area := n.entries[i].rect.Area()
			if dOverlap < bestOverlap-1e-12 ||
				(almostEq(dOverlap, bestOverlap) && enl < bestEnl-1e-12) ||
				(almostEq(dOverlap, bestOverlap) && almostEq(enl, bestEnl) && area < bestArea) {
				best, bestOverlap, bestEnl, bestArea = i, dOverlap, enl, area
			}
		}
		return best
	}
	// Inner levels: minimize area enlargement, then area.
	best, bestEnl, bestArea := -1, math.Inf(1), math.Inf(1)
	for i := range n.entries {
		enl := enlargement(n.entries[i].rect, r)
		area := n.entries[i].rect.Area()
		if enl < bestEnl-1e-12 || (almostEq(enl, bestEnl) && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	return best
}

func almostEq(a, b float64) bool { return math.Abs(a-b) <= 1e-12 }

// intersect returns the intersection of r and s (possibly empty).
func intersect(r, s geom.Rect) geom.Rect {
	out := geom.Rect{
		Min: geom.Pt(math.Max(r.Min.X, s.Min.X), math.Max(r.Min.Y, s.Min.Y)),
		Max: geom.Pt(math.Min(r.Max.X, s.Max.X), math.Min(r.Max.Y, s.Max.Y)),
	}
	if out.IsEmpty() {
		return geom.EmptyRect()
	}
	return out
}

// enlargement returns the area increase needed for r to also cover s.
func enlargement(r, s geom.Rect) float64 { return r.Union(s).Area() - r.Area() }

// overflow resolves an overfull node at path[idx], either by forced
// reinsertion (first overflow at this level for the current insert, non-root)
// or by splitting.
func (t *Tree) overflow(path []*Node, idx int, reinserted map[int]bool) {
	n := path[idx]
	if idx > 0 && !reinserted[n.level] {
		reinserted[n.level] = true
		t.reinsert(path, idx, reinserted)
		return
	}
	t.split(path, idx, reinserted)
}

// reinsert removes the p entries of n farthest from its center and inserts
// them again from the top, which tends to rebalance hot regions without a
// split.
func (t *Tree) reinsert(path []*Node, idx int, reinserted map[int]bool) {
	n := path[idx]
	center := n.bounds().Center()
	order := make([]int, len(n.entries))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		da := n.entries[order[a]].rect.Center().Dist2(center)
		db := n.entries[order[b]].rect.Center().Dist2(center)
		return da > db // farthest first
	})
	p := max(int(reinsertFraction*float64(t.maxEntries)), 1)
	evictIdx := make(map[int]bool, p)
	for _, i := range order[:p] {
		evictIdx[i] = true
	}
	var evicted []entry
	kept := n.entries[:0]
	for i, e := range n.entries {
		if evictIdx[i] {
			evicted = append(evicted, e)
		} else {
			kept = append(kept, e)
		}
	}
	n.entries = kept
	t.tightenPath(path, idx)
	// Close reinsert: nearest evicted entries first.
	for i := len(evicted) - 1; i >= 0; i-- {
		t.insert(evicted[i], n.level, reinserted)
	}
}

// split performs the R* topological split of path[idx] and pushes the new
// sibling into the parent, growing the tree at the root if needed.
func (t *Tree) split(path []*Node, idx int, reinserted map[int]bool) {
	n := path[idx]
	left, right := t.chooseSplit(n)
	n.entries = left
	sibling := t.newNode(n.level, right)

	if idx == 0 {
		// Root split: grow the tree.
		t.root = t.newNode(n.level+1, []entry{
			{rect: n.bounds(), child: n},
			{rect: sibling.bounds(), child: sibling},
		})
		return
	}
	parent := path[idx-1]
	for j := range parent.entries {
		if parent.entries[j].child == n {
			parent.entries[j].rect = n.bounds()
			break
		}
	}
	parent.entries = append(parent.entries, entry{rect: sibling.bounds(), child: sibling})
	t.tightenPath(path, idx-1)
	if len(parent.entries) > t.maxEntries {
		t.overflow(path[:idx], idx-1, reinserted)
	}
}

// chooseSplit implements the R* split: pick the axis with the minimum sum of
// margins over all candidate distributions, then the distribution with the
// minimum overlap (area tie-break).
func (t *Tree) chooseSplit(n *Node) (left, right []entry) {
	entries := n.entries
	m := t.minEntries
	M := len(entries) - 1 // entries holds M+1 items during overflow

	type distribution struct {
		left, right []entry
		margin      float64
		overlap     float64
		area        float64
	}
	axisDistributions := func(less func(a, b entry) bool) ([]distribution, float64) {
		sorted := make([]entry, len(entries))
		copy(sorted, entries)
		sort.SliceStable(sorted, func(i, j int) bool { return less(sorted[i], sorted[j]) })
		var dists []distribution
		var marginSum float64
		for k := m; k <= M+1-m; k++ {
			l, r := sorted[:k], sorted[k:]
			lb, rb := boundsOf(l), boundsOf(r)
			d := distribution{
				left:    l,
				right:   r,
				margin:  lb.Margin() + rb.Margin(),
				overlap: intersect(lb, rb).Area(),
				area:    lb.Area() + rb.Area(),
			}
			dists = append(dists, d)
			marginSum += d.margin
		}
		return dists, marginSum
	}

	// Candidate sorts per axis: by lower then by upper coordinate. Summing
	// the margins of both sorts selects the split axis.
	xDists, xMargin := axisDistributions(func(a, b entry) bool {
		if a.rect.Min.X != b.rect.Min.X {
			return a.rect.Min.X < b.rect.Min.X
		}
		return a.rect.Max.X < b.rect.Max.X
	})
	xDists2, xMargin2 := axisDistributions(func(a, b entry) bool {
		if a.rect.Max.X != b.rect.Max.X {
			return a.rect.Max.X < b.rect.Max.X
		}
		return a.rect.Min.X < b.rect.Min.X
	})
	yDists, yMargin := axisDistributions(func(a, b entry) bool {
		if a.rect.Min.Y != b.rect.Min.Y {
			return a.rect.Min.Y < b.rect.Min.Y
		}
		return a.rect.Max.Y < b.rect.Max.Y
	})
	yDists2, yMargin2 := axisDistributions(func(a, b entry) bool {
		if a.rect.Max.Y != b.rect.Max.Y {
			return a.rect.Max.Y < b.rect.Max.Y
		}
		return a.rect.Min.Y < b.rect.Min.Y
	})

	var candidates []distribution
	if xMargin+xMargin2 <= yMargin+yMargin2 {
		candidates = append(xDists, xDists2...)
	} else {
		candidates = append(yDists, yDists2...)
	}
	best := candidates[0]
	for _, d := range candidates[1:] {
		if d.overlap < best.overlap-1e-12 ||
			(almostEq(d.overlap, best.overlap) && d.area < best.area) {
			best = d
		}
	}
	// Copy out: the slices alias sort buffers.
	left = append([]entry(nil), best.left...)
	right = append([]entry(nil), best.right...)
	return left, right
}

func boundsOf(es []entry) geom.Rect {
	r := geom.EmptyRect()
	for i := range es {
		r = r.Union(es[i].rect)
	}
	return r
}
