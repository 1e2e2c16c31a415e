// Package rtree implements the R*-tree of Beckmann, Kriegel, Schneider and
// Seeger (SIGMOD 1990), the disk-based spatial index the paper's database
// server uses to store points of interest. It indexes points: a value is the
// caller's int32 item number (its row in the caller's own table), stored next
// to the point it lives at.
//
// The index is static. The POI set never changes during an experiment or a
// daemon run, so Build packs the tree top-down from the whole set
// (build.go), and a built tree is read, never mutated. R* insertion survives
// only as the test referee in internal/rtree/rtreetest, the tree the packed
// one is measured against. Reading is rectangle range search and a read-only
// node traversal API that the kNN algorithms in internal/nn build on. The
// tree keeps no query-time state: a traversal counts the pages it reads
// itself (Search returns its count, nn.Iterator keeps its own), so
// concurrent readers share nothing mutable.
//
// Nodes live in pointer-free arenas addressed by int32 node id (DESIGN.md
// §10): the collector never traces the index, and a node is one contiguous
// run of slots, as a disk page is.
//
// The paper configures the branching factor of both index and leaf nodes to
// 30 (§4.4); DefaultMaxEntries matches that.
package rtree

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// DefaultMaxEntries is the paper's branching factor for index and leaf nodes.
const DefaultMaxEntries = 30

// node is one row of the node table. Its entries are the first count slots
// of run number run in the leaf arena (level 0) or the inner arena.
type node struct {
	level int32 // 0 = leaf
	count int32
	run   int32
}

// Tree is an R*-tree mapping points to int32 item numbers, made by Build.
// It is immutable, so concurrent use is safe.
type Tree struct {
	root       int32
	minEntries int
	maxEntries int
	size       int

	// A node owns a run of maxEntries slots. Leaf slot s is leafPts[s] +
	// leafRefs[s], 20 B; inner slot s is innerRects[s] + innerKids[s], 36 B.
	// No pointers.
	nodes      []node
	leafPts    []geom.Point
	leafRefs   []int32
	innerRects []geom.Rect
	innerKids  []int32
}

// Len returns the number of stored values.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels in the tree (1 for a tree that is a
// single leaf).
func (t *Tree) Height() int { return int(t.nodes[t.root].level) + 1 }

// Nodes returns the number of nodes — pages — in the tree.
func (t *Tree) Nodes() int { return len(t.nodes) }

// Bounds returns the MBR of all stored values.
func (t *Tree) Bounds() geom.Rect { return t.bounds(t.root) }

// Bytes returns the memory the index occupies (not the caller's item table):
// 12 B per node, 20 B per leaf slot, 36 B per inner slot, from arena lengths.
func (t *Tree) Bytes() int64 {
	return 12*int64(len(t.nodes)) + 20*int64(len(t.leafRefs)) + 36*int64(len(t.innerKids))
}

// slots returns the arena range [lo, hi) holding the entries of node id.
func (t *Tree) slots(id int32) (lo, hi int) {
	n := &t.nodes[id]
	lo = int(n.run) * t.maxEntries
	return lo, lo + int(n.count)
}

func (t *Tree) bounds(id int32) geom.Rect {
	r := geom.EmptyRect()
	lo, hi := t.slots(id)
	if t.nodes[id].level == 0 {
		for _, p := range t.leafPts[lo:hi] {
			r = r.Union(geom.RectFromPoint(p))
		}
		return r
	}
	for _, c := range t.innerRects[lo:hi] {
		r = r.Union(c)
	}
	return r
}

// Search invokes fn for every stored value whose point lies in query,
// stopping early if fn returns false. It returns the number of nodes it
// visited — the page accesses of this one search (the root always counts).
func (t *Tree) Search(query geom.Rect, fn func(p geom.Point, ref int32) bool) (pages int64) {
	t.search(t.root, query, fn, &pages)
	return pages
}

func (t *Tree) search(id int32, query geom.Rect, fn func(geom.Point, int32) bool, pages *int64) bool {
	*pages++
	lo, hi := t.slots(id)
	if t.nodes[id].level == 0 {
		for s := lo; s < hi; s++ {
			if query.Contains(t.leafPts[s]) && !fn(t.leafPts[s], t.leafRefs[s]) {
				return false
			}
		}
		return true
	}
	for s := lo; s < hi; s++ {
		if t.innerRects[s].Intersects(query) && !t.search(t.innerKids[s], query, fn, pages) {
			return false
		}
	}
	return true
}

// All invokes fn for every stored value. It is intended for tests and bulk
// export, not query processing.
func (t *Tree) All(fn func(p geom.Point, ref int32) bool) {
	inf := math.Inf(1)
	t.Search(geom.Rect{Min: geom.Pt(-inf, -inf), Max: geom.Pt(inf, inf)}, fn)
}

// Node is a read-only view of a tree node for query algorithms that manage
// their own traversal order (best-first kNN and friends). Obtaining a Node —
// via Root, Child or Node — is one page read, which the traversal counts.
type Node struct {
	t     *Tree
	lo    int32 // arena index of entry 0
	n     int32
	level int32
}

// Root returns the root node. ok is false only for a tree with no entries at
// all (the empty root is still returned).
func (t *Tree) Root() (nd Node, ok bool) {
	nd = t.Node(t.root)
	return nd, nd.n > 0
}

// Node fetches the node an inner entry's Ref names.
func (t *Tree) Node(ref int32) Node {
	n := &t.nodes[ref]
	return Node{t: t, lo: n.run * int32(t.maxEntries), n: n.count, level: n.level}
}

// IsLeaf reports whether the node's entries carry items rather than children.
func (nd Node) IsLeaf() bool { return nd.level == 0 }

// Len returns the number of entries in the node.
func (nd Node) Len() int { return int(nd.n) }

// Rect returns the MBR of inner entry i (of a leaf entry, its point's).
func (nd Node) Rect(i int) geom.Rect {
	if nd.level == 0 {
		return geom.RectFromPoint(nd.Point(i))
	}
	return nd.t.innerRects[int(nd.lo)+i]
}

// Point returns the location of leaf entry i.
func (nd Node) Point(i int) geom.Point { return nd.t.leafPts[int(nd.lo)+i] }

// Ref returns the item number of leaf entry i, or the Tree.Node reference
// of inner entry i's child.
func (nd Node) Ref(i int) int32 {
	if nd.level == 0 {
		return nd.t.leafRefs[int(nd.lo)+i]
	}
	return nd.t.innerKids[int(nd.lo)+i]
}

// Child fetches the child node of inner entry i.
func (nd Node) Child(i int) Node { return nd.t.Node(nd.Ref(i)) }

// CheckInvariants validates the structural invariants of the tree — the R*
// fill bounds, one level per depth, parent rectangles covering their
// children, no node in the table left unreached — and returns a descriptive
// error on the first violation. It is exported for use by tests and fuzzing
// harnesses.
func (t *Tree) CheckInvariants() error {
	count, reached := 0, 0
	var walk func(id, wantLevel int32) error
	walk = func(id, wantLevel int32) error {
		reached++
		n, isRoot := t.nodes[id], id == t.root
		switch {
		case n.level != wantLevel:
			return fmt.Errorf("node level %d, want %d", n.level, wantLevel)
		case int(n.count) > t.maxEntries:
			return fmt.Errorf("node has %d entries, max %d", n.count, t.maxEntries)
		case !isRoot && int(n.count) < t.minEntries:
			return fmt.Errorf("non-root node has %d entries, min %d", n.count, t.minEntries)
		case isRoot && n.level > 0 && n.count < 2:
			return fmt.Errorf("inner root has %d entries, want >= 2", n.count)
		case n.level == 0:
			count += int(n.count)
			return nil
		}
		lo, hi := t.slots(id)
		for s := lo; s < hi; s++ {
			child := t.innerKids[s]
			if child < 0 || int(child) >= len(t.nodes) {
				return fmt.Errorf("inner entry names node %d of %d", child, len(t.nodes))
			}
			if cb := t.bounds(child); !t.innerRects[s].ContainsRect(cb) {
				return fmt.Errorf("entry rect %v does not contain child bounds %v", t.innerRects[s], cb)
			}
			if err := walk(child, wantLevel-1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, t.nodes[t.root].level); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("tree size %d, counted %d leaf entries", t.size, count)
	}
	if reached != len(t.nodes) {
		return fmt.Errorf("%d nodes reached from the root, node table holds %d", reached, len(t.nodes))
	}
	return nil
}
