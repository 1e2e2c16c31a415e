package rtree

import (
	"math"
	"sort"

	"repro/internal/geom"
)

// This file is the reference builder: the insertion and deletion paths
// exactly as they stood before the exact-shortcut rewrite — the full
// O(M²) overlap sums through Intersect(...).Area(), boundsOf per candidate
// distribution, sort.Slice/sort.SliceStable, fresh maps and slices per
// call — over the node layout they were written for: heap nodes that own a
// slice of entries and point at their children. It is the oracle of
// TestFastBuildMatchesReference and TestChurnMatchesReference (node-for-node,
// bitwise equality through the production tree's Node view) and the baseline
// of BenchmarkBuild. It shares only almostEq and reinsertFraction with
// production.

// refEntry is a slot in a refNode: a bounding rectangle plus either a child
// node (inner levels) or the item number (leaf level).
type refEntry struct {
	rect  geom.Rect
	child *refNode // nil at leaf level
	ref   int32
}

type refNode struct {
	leaf    bool
	level   int // 0 = leaf
	entries []refEntry
}

func (n *refNode) bounds() geom.Rect {
	r := geom.EmptyRect()
	for i := range n.entries {
		r = r.Union(n.entries[i].rect)
	}
	return r
}

type refTree struct {
	root       *refNode
	minEntries int
	maxEntries int
	size       int
}

// newRefTree mirrors New: minimum fill 40 % of the maximum.
func newRefTree(maxEntries int) *refTree {
	return &refTree{
		root:       &refNode{leaf: true},
		minEntries: max(maxEntries*2/5, 2),
		maxEntries: maxEntries,
	}
}

// tightenPath recomputes the parent rectangles covering path[idx] up to the
// root.
func (t *refTree) tightenPath(path []*refNode, idx int) {
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

func (t *refTree) findLeaf(n *refNode, path []*refNode, rect geom.Rect, ref int32) ([]*refNode, int) {
	path = append(path, n)
	if n.leaf {
		for i := range n.entries {
			if n.entries[i].ref == ref && n.entries[i].rect == rect {
				return path, i
			}
		}
		return nil, -1
	}
	for i := range n.entries {
		if n.entries[i].rect.ContainsRect(rect) {
			if p, idx := t.findLeaf(n.entries[i].child, path, rect, ref); p != nil {
				return p, idx
			}
		}
	}
	return nil, -1
}

// refInsert stores item number ref under rect.
func (t *refTree) refInsert(rect geom.Rect, ref int32) {
	t.refInsertEntry(refEntry{rect: rect, ref: ref}, 0, make(map[int]bool))
	t.size++
}

// refInsertEntry inserts e at the given level. reinserted tracks which levels
// already performed a forced reinsertion during the current outer insert so
// each level reinserts at most once (the R* rule).
func (t *refTree) refInsertEntry(e refEntry, level int, reinserted map[int]bool) {
	path := t.refChoosePath(e.rect, level)
	target := path[len(path)-1]
	target.entries = append(target.entries, e)
	// Walk back up, handling overflow and tightening parent rectangles.
	for i := len(path) - 1; i >= 0; i-- {
		n := path[i]
		if len(n.entries) > t.maxEntries {
			t.refOverflow(path, i, reinserted)
		}
	}
}

// refChoosePath descends from the root to the node at the target level whose
// entry chain should receive a rectangle, returning the nodes along the way.
// Subtree choice follows R*: minimum overlap enlargement when the children
// are leaves, minimum area enlargement otherwise, with area and size
// tie-breaks.
func (t *refTree) refChoosePath(r geom.Rect, level int) []*refNode {
	path := []*refNode{t.root}
	n := t.root
	for n.level > level {
		best := t.refChooseSubtree(n, r)
		n.entries[best].rect = n.entries[best].rect.Union(r)
		n = n.entries[best].child
		path = append(path, n)
	}
	return path
}

func (t *refTree) refChooseSubtree(n *refNode, r geom.Rect) int {
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
				overlap += n.entries[i].rect.Intersect(n.entries[j].rect).Area()
				overlapNew += enlarged.Intersect(n.entries[j].rect).Area()
			}
			dOverlap := overlapNew - overlap
			enl := n.entries[i].rect.Enlargement(r)
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
		enl := n.entries[i].rect.Enlargement(r)
		area := n.entries[i].rect.Area()
		if enl < bestEnl-1e-12 || (almostEq(enl, bestEnl) && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	return best
}

// refOverflow resolves an overfull node at path[idx], either by forced
// reinsertion (first overflow at this level for the current insert, non-root)
// or by splitting.
func (t *refTree) refOverflow(path []*refNode, idx int, reinserted map[int]bool) {
	n := path[idx]
	isRoot := idx == 0
	if !isRoot && !reinserted[n.level] {
		reinserted[n.level] = true
		t.refReinsert(path, idx, reinserted)
		return
	}
	t.refSplit(path, idx, reinserted)
}

// refReinsert removes the p entries of n farthest from its center and inserts
// them again from the top, which tends to rebalance hot regions without a
// split.
func (t *refTree) refReinsert(path []*refNode, idx int, reinserted map[int]bool) {
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
	p := int(reinsertFraction * float64(t.maxEntries))
	if p < 1 {
		p = 1
	}
	evictIdx := make(map[int]bool, p)
	for _, i := range order[:p] {
		evictIdx[i] = true
	}
	var evicted []refEntry
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
		t.refInsertEntry(evicted[i], n.level, reinserted)
	}
}

// refSplit performs the R* topological split of path[idx] and pushes the new
// sibling into the parent, growing the tree at the root if needed.
func (t *refTree) refSplit(path []*refNode, idx int, reinserted map[int]bool) {
	n := path[idx]
	left, right := t.refChooseSplit(n)
	n.entries = left
	sibling := &refNode{leaf: n.leaf, level: n.level, entries: right}

	if idx == 0 {
		// Root split: grow the tree.
		newRoot := &refNode{
			leaf:  false,
			level: n.level + 1,
			entries: []refEntry{
				{rect: n.bounds(), child: n},
				{rect: sibling.bounds(), child: sibling},
			},
		}
		t.root = newRoot
		return
	}
	parent := path[idx-1]
	for j := range parent.entries {
		if parent.entries[j].child == n {
			parent.entries[j].rect = n.bounds()
			break
		}
	}
	parent.entries = append(parent.entries, refEntry{rect: sibling.bounds(), child: sibling})
	t.tightenPath(path, idx-1)
	if len(parent.entries) > t.maxEntries {
		t.refOverflow(path[:idx], idx-1, reinserted)
	}
}

// refChooseSplit implements the R* split: pick the axis with the minimum sum of
// margins over all candidate distributions, then the distribution with the
// minimum overlap (area tie-break).
func (t *refTree) refChooseSplit(n *refNode) (left, right []refEntry) {
	entries := n.entries
	m := t.minEntries
	M := len(entries) - 1 // entries holds M+1 items during overflow

	type distribution struct {
		left, right []refEntry
		margin      float64
		overlap     float64
		area        float64
	}
	axisDistributions := func(less func(a, b refEntry) bool) ([]distribution, float64) {
		sorted := make([]refEntry, len(entries))
		copy(sorted, entries)
		sort.SliceStable(sorted, func(i, j int) bool { return less(sorted[i], sorted[j]) })
		var dists []distribution
		var marginSum float64
		for k := m; k <= M+1-m; k++ {
			l, r := sorted[:k], sorted[k:]
			lb, rb := refBoundsOf(l), refBoundsOf(r)
			d := distribution{
				left:    l,
				right:   r,
				margin:  lb.Margin() + rb.Margin(),
				overlap: lb.Intersect(rb).Area(),
				area:    lb.Area() + rb.Area(),
			}
			dists = append(dists, d)
			marginSum += d.margin
		}
		return dists, marginSum
	}

	// Candidate sorts per axis: by lower then by upper coordinate. Summing
	// the margins of both sorts selects the split axis.
	xDists, xMargin := axisDistributions(func(a, b refEntry) bool {
		if a.rect.Min.X != b.rect.Min.X {
			return a.rect.Min.X < b.rect.Min.X
		}
		return a.rect.Max.X < b.rect.Max.X
	})
	xDists2, xMargin2 := axisDistributions(func(a, b refEntry) bool {
		if a.rect.Max.X != b.rect.Max.X {
			return a.rect.Max.X < b.rect.Max.X
		}
		return a.rect.Min.X < b.rect.Min.X
	})
	yDists, yMargin := axisDistributions(func(a, b refEntry) bool {
		if a.rect.Min.Y != b.rect.Min.Y {
			return a.rect.Min.Y < b.rect.Min.Y
		}
		return a.rect.Max.Y < b.rect.Max.Y
	})
	yDists2, yMargin2 := axisDistributions(func(a, b refEntry) bool {
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
	left = append([]refEntry(nil), best.left...)
	right = append([]refEntry(nil), best.right...)
	return left, right
}

func refBoundsOf(es []refEntry) geom.Rect {
	r := geom.EmptyRect()
	for i := range es {
		r = r.Union(es[i].rect)
	}
	return r
}

// refDelete removes item number ref stored under rect (comparison with
// ==). It reports whether a matching entry was found.
func (t *refTree) refDelete(rect geom.Rect, ref int32) bool {
	path, entryIdx := t.findLeaf(t.root, nil, rect, ref)
	if path == nil {
		return false
	}
	leaf := path[len(path)-1]
	leaf.entries = append(leaf.entries[:entryIdx], leaf.entries[entryIdx+1:]...)
	t.size--
	t.refCondense(path)
	return true
}

// refCondense removes underfull nodes along the path and reinserts their
// orphaned entries, then shrinks the root if it has a single child.
func (t *refTree) refCondense(path []*refNode) {
	var orphans []refEntry
	var orphanLevels []int
	for i := len(path) - 1; i >= 1; i-- {
		n := path[i]
		parent := path[i-1]
		if len(n.entries) < t.minEntries {
			// Remove n from its parent and queue its entries.
			for j := range parent.entries {
				if parent.entries[j].child == n {
					parent.entries = append(parent.entries[:j], parent.entries[j+1:]...)
					break
				}
			}
			for _, e := range n.entries {
				orphans = append(orphans, e)
				orphanLevels = append(orphanLevels, n.level)
			}
		} else {
			// Tighten the parent rectangle.
			for j := range parent.entries {
				if parent.entries[j].child == n {
					parent.entries[j].rect = n.bounds()
					break
				}
			}
		}
	}
	for i, e := range orphans {
		t.refInsertEntry(e, orphanLevels[i], make(map[int]bool))
	}
	// Shrink a non-leaf root with a single child.
	for !t.root.leaf && len(t.root.entries) == 1 {
		t.root = t.root.entries[0].child
	}
	if t.root.leaf {
		t.root.level = 0
	}
}
