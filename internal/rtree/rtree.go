// Package rtree implements the R*-tree of Beckmann, Kriegel, Schneider and
// Seeger (SIGMOD 1990), the disk-based spatial index the paper's database
// server uses to store points of interest. It provides insertion with forced
// reinsertion, the R* topological split, deletion with tree condensation,
// rectangle range search, and a read-only node traversal API that the kNN
// algorithms in internal/nn build on. The tree keeps no query-time state:
// a traversal counts the pages it reads itself (Search returns its count,
// nn.Iterator keeps its own), so concurrent readers share nothing mutable.
//
// The paper configures the branching factor of both index and leaf nodes to
// 30 (§4.4); DefaultMaxEntries matches that.
package rtree

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
)

const (
	// DefaultMaxEntries is the paper's branching factor for index and leaf
	// nodes.
	DefaultMaxEntries = 30
	// reinsertFraction is the share of entries evicted by forced reinsertion
	// on the first overflow of a level, p = 30% of M as recommended by the
	// R*-tree authors.
	reinsertFraction = 0.3
)

// entry is a slot in a node: a bounding rectangle plus either a child node
// (inner levels) or user data (leaf level).
type entry struct {
	rect  geom.Rect
	child *node // nil at leaf level
	data  any   // nil at inner levels
}

type node struct {
	leaf    bool
	level   int // 0 = leaf
	entries []entry
}

func (n *node) bounds() geom.Rect {
	r := geom.EmptyRect()
	for i := range n.entries {
		r = r.Union(n.entries[i].rect)
	}
	return r
}

// Tree is an R*-tree mapping rectangles (usually degenerate point rectangles)
// to opaque values. The zero value is not usable; construct with New.
// Tree is not safe for concurrent mutation; concurrent read-only use is safe.
type Tree struct {
	root       *node
	minEntries int
	maxEntries int
	size       int
}

// New returns an empty tree with the given maximum node fan-out. The minimum
// fill is set to 40 % of max, the R*-tree authors' recommendation. maxEntries
// must be at least 4.
func New(maxEntries int) *Tree {
	if maxEntries < 4 {
		panic(fmt.Sprintf("rtree: maxEntries must be >= 4, got %d", maxEntries))
	}
	minEntries := maxEntries * 2 / 5
	if minEntries < 2 {
		minEntries = 2
	}
	return &Tree{
		root:       &node{leaf: true, level: 0},
		minEntries: minEntries,
		maxEntries: maxEntries,
	}
}

// NewDefault returns an empty tree with the paper's branching factor of 30.
func NewDefault() *Tree { return New(DefaultMaxEntries) }

// Len returns the number of stored values.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels in the tree (1 for a tree that is a
// single leaf).
func (t *Tree) Height() int { return t.root.level + 1 }

// Bounds returns the MBR of all stored values.
func (t *Tree) Bounds() geom.Rect { return t.root.bounds() }

// InsertPoint stores data under the degenerate rectangle at p.
func (t *Tree) InsertPoint(p geom.Point, data any) {
	t.Insert(geom.RectFromPoint(p), data)
}

// Insert stores data under rect.
func (t *Tree) Insert(rect geom.Rect, data any) {
	t.insertEntry(entry{rect: rect, data: data}, 0, make(map[int]bool))
	t.size++
}

// insertEntry inserts e at the given level. reinserted tracks which levels
// already performed a forced reinsertion during the current outer insert so
// each level reinserts at most once (the R* rule).
func (t *Tree) insertEntry(e entry, level int, reinserted map[int]bool) {
	path := t.choosePath(e.rect, level)
	target := path[len(path)-1]
	target.entries = append(target.entries, e)
	// Walk back up, handling overflow and tightening parent rectangles.
	for i := len(path) - 1; i >= 0; i-- {
		n := path[i]
		if len(n.entries) > t.maxEntries {
			t.overflow(path, i, reinserted)
		}
	}
}

// choosePath descends from the root to the node at the target level whose
// entry chain should receive a rectangle, returning the nodes along the way.
// Subtree choice follows R*: minimum overlap enlargement when the children
// are leaves, minimum area enlargement otherwise, with area and size
// tie-breaks.
func (t *Tree) choosePath(r geom.Rect, level int) []*node {
	path := []*node{t.root}
	n := t.root
	for n.level > level {
		best := t.chooseSubtree(n, r)
		n.entries[best].rect = n.entries[best].rect.Union(r)
		n = n.entries[best].child
		path = append(path, n)
	}
	return path
}

func (t *Tree) chooseSubtree(n *node, r geom.Rect) int {
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
				overlap += n.entries[i].rect.OverlapArea(n.entries[j].rect)
				overlapNew += enlarged.OverlapArea(n.entries[j].rect)
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

func almostEq(a, b float64) bool { return math.Abs(a-b) <= 1e-12 }

// overflow resolves an overfull node at path[idx], either by forced
// reinsertion (first overflow at this level for the current insert, non-root)
// or by splitting.
func (t *Tree) overflow(path []*node, idx int, reinserted map[int]bool) {
	n := path[idx]
	isRoot := idx == 0
	if !isRoot && !reinserted[n.level] {
		reinserted[n.level] = true
		t.reinsert(path, idx, reinserted)
		return
	}
	t.split(path, idx, reinserted)
}

// reinsert removes the p entries of n farthest from its center and inserts
// them again from the top, which tends to rebalance hot regions without a
// split.
func (t *Tree) reinsert(path []*node, idx int, reinserted map[int]bool) {
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
		t.insertEntry(evicted[i], n.level, reinserted)
	}
}

// tightenPath recomputes the parent rectangles covering path[idx] up to the
// root.
func (t *Tree) tightenPath(path []*node, idx int) {
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

// split performs the R* topological split of path[idx] and pushes the new
// sibling into the parent, growing the tree at the root if needed.
func (t *Tree) split(path []*node, idx int, reinserted map[int]bool) {
	n := path[idx]
	left, right := t.chooseSplit(n)
	n.entries = left
	sibling := &node{leaf: n.leaf, level: n.level, entries: right}

	if idx == 0 {
		// Root split: grow the tree.
		newRoot := &node{
			leaf:  false,
			level: n.level + 1,
			entries: []entry{
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
	parent.entries = append(parent.entries, entry{rect: sibling.bounds(), child: sibling})
	t.tightenPath(path, idx-1)
	if len(parent.entries) > t.maxEntries {
		t.overflow(path[:idx], idx-1, reinserted)
	}
}

// chooseSplit implements the R* split: pick the axis with the minimum sum of
// margins over all candidate distributions, then the distribution with the
// minimum overlap (area tie-break).
func (t *Tree) chooseSplit(n *node) (left, right []entry) {
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
				overlap: lb.OverlapArea(rb),
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

// Delete removes one value equal to data stored under rect (comparison with
// ==). It reports whether a matching entry was found.
func (t *Tree) Delete(rect geom.Rect, data any) bool {
	path, entryIdx := t.findLeaf(t.root, nil, rect, data)
	if path == nil {
		return false
	}
	leaf := path[len(path)-1]
	leaf.entries = append(leaf.entries[:entryIdx], leaf.entries[entryIdx+1:]...)
	t.size--
	t.condense(path)
	return true
}

// DeletePoint removes one value stored at point p.
func (t *Tree) DeletePoint(p geom.Point, data any) bool {
	return t.Delete(geom.RectFromPoint(p), data)
}

func (t *Tree) findLeaf(n *node, path []*node, rect geom.Rect, data any) ([]*node, int) {
	path = append(path, n)
	if n.leaf {
		for i := range n.entries {
			if n.entries[i].data == data && n.entries[i].rect == rect {
				return path, i
			}
		}
		return nil, -1
	}
	for i := range n.entries {
		if n.entries[i].rect.ContainsRect(rect) {
			if p, idx := t.findLeaf(n.entries[i].child, path, rect, data); p != nil {
				return p, idx
			}
		}
	}
	return nil, -1
}

// condense removes underfull nodes along the path and reinserts their
// orphaned entries, then shrinks the root if it has a single child.
func (t *Tree) condense(path []*node) {
	var orphans []entry
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
		t.insertEntry(e, orphanLevels[i], make(map[int]bool))
	}
	// Shrink a non-leaf root with a single child.
	for !t.root.leaf && len(t.root.entries) == 1 {
		t.root = t.root.entries[0].child
	}
	if t.root.leaf {
		t.root.level = 0
	}
}

// Search invokes fn for every stored value whose rectangle intersects query,
// stopping early if fn returns false. It returns the number of nodes it
// visited — the page accesses of this one search (the root always counts).
func (t *Tree) Search(query geom.Rect, fn func(rect geom.Rect, data any) bool) (pages int64) {
	searchNode(t.root, query, fn, &pages)
	return pages
}

func searchNode(n *node, query geom.Rect, fn func(geom.Rect, any) bool, pages *int64) bool {
	*pages++
	for i := range n.entries {
		if !n.entries[i].rect.Intersects(query) {
			continue
		}
		if n.leaf {
			if !fn(n.entries[i].rect, n.entries[i].data) {
				return false
			}
		} else if !searchNode(n.entries[i].child, query, fn, pages) {
			return false
		}
	}
	return true
}

// All invokes fn for every stored value. It is intended for tests and bulk
// export, not query processing.
func (t *Tree) All(fn func(rect geom.Rect, data any) bool) {
	var walk func(n *node) bool
	walk = func(n *node) bool {
		for i := range n.entries {
			if n.leaf {
				if !fn(n.entries[i].rect, n.entries[i].data) {
					return false
				}
			} else if !walk(n.entries[i].child) {
				return false
			}
		}
		return true
	}
	walk(t.root)
}

// Node is a read-only view of a tree node for query algorithms that manage
// their own traversal order (best-first kNN and friends). Obtaining a Node —
// via Root or Child — is one page read, which the traversal counts.
type Node struct {
	n *node
}

// Root returns the root node. ok is false only for a tree with no entries at
// all (the empty root is still returned).
func (t *Tree) Root() (nd Node, ok bool) {
	return Node{n: t.root}, len(t.root.entries) > 0
}

// IsLeaf reports whether the node's entries carry data rather than children.
func (nd Node) IsLeaf() bool { return nd.n.leaf }

// Len returns the number of entries in the node.
func (nd Node) Len() int { return len(nd.n.entries) }

// Rect returns the bounding rectangle of entry i.
func (nd Node) Rect(i int) geom.Rect { return nd.n.entries[i].rect }

// Data returns the value of leaf entry i.
func (nd Node) Data(i int) any { return nd.n.entries[i].data }

// Child fetches the child node of inner entry i.
func (nd Node) Child(i int) Node {
	return Node{n: nd.n.entries[i].child}
}

// CheckInvariants validates the structural invariants of the tree and
// returns a descriptive error on the first violation. It is exported for use
// by tests and fuzzing harnesses.
func (t *Tree) CheckInvariants() error {
	count := 0
	var walk func(n *node, isRoot bool, wantLevel int) error
	walk = func(n *node, isRoot bool, wantLevel int) error {
		if n.level != wantLevel {
			return fmt.Errorf("node level %d, want %d", n.level, wantLevel)
		}
		if n.leaf != (n.level == 0) {
			return fmt.Errorf("leaf flag %v inconsistent with level %d", n.leaf, n.level)
		}
		if len(n.entries) > t.maxEntries {
			return fmt.Errorf("node has %d entries, max %d", len(n.entries), t.maxEntries)
		}
		if !isRoot && len(n.entries) < t.minEntries {
			return fmt.Errorf("non-root node has %d entries, min %d", len(n.entries), t.minEntries)
		}
		if isRoot && !n.leaf && len(n.entries) < 2 {
			return fmt.Errorf("inner root has %d entries, want >= 2", len(n.entries))
		}
		for i := range n.entries {
			e := n.entries[i]
			if n.leaf {
				count++
				if e.child != nil {
					return fmt.Errorf("leaf entry has child")
				}
				continue
			}
			if e.child == nil {
				return fmt.Errorf("inner entry missing child")
			}
			cb := e.child.bounds()
			if !e.rect.ContainsRect(cb) {
				return fmt.Errorf("entry rect %v does not contain child bounds %v", e.rect, cb)
			}
			if err := walk(e.child, false, wantLevel-1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, true, t.root.level); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("tree size %d, counted %d leaf entries", t.size, count)
	}
	return nil
}
