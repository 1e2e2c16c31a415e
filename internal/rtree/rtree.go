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
	"cmp"
	"fmt"
	"math"
	"slices"

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
	// maxHeight bounds a root-to-leaf path: every non-root node holds at
	// least two entries, so a tree of height h stores at least 2^(h-1)
	// values. It sizes the stack-allocated path of an insertion and keeps
	// the per-insert reinserted-levels set in one word.
	maxHeight = 64
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

	// Insert-path scratch, reused so that a steady-state Insert allocates
	// only the nodes it creates.
	reinserted uint64        // bit l: level l already force-reinserted during the current outer insert
	evicted    []entry       // stack of entries awaiting forced reinsertion
	far        []farKey      // reinsert's distance sort
	keys       [4][]splitKey // chooseSplit's four candidate sorts
	suffix     []geom.Rect   // chooseSplit's second-group MBRs
	dists      []splitDist   // chooseSplit's candidate distributions
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
	t.reinserted = 0
	t.insertEntry(entry{rect: rect, data: data}, 0)
	t.size++
}

// insertEntry inserts e at the given level. t.reinserted tracks which levels
// already performed a forced reinsertion during the current outer insert so
// each level reinserts at most once (the R* rule).
func (t *Tree) insertEntry(e entry, level int) {
	// The path lives in this frame, not on the Tree: a forced reinsertion
	// below re-enters insertEntry while this frame still walks its own path.
	var buf [maxHeight]*node
	path := t.choosePath(buf[:0], e.rect, level)
	target := path[len(path)-1]
	target.entries = append(target.entries, e)
	// Walk back up, handling overflow and tightening parent rectangles.
	for i := len(path) - 1; i >= 0; i-- {
		n := path[i]
		if len(n.entries) > t.maxEntries {
			t.overflow(path, i)
		}
	}
}

// choosePath descends from the root to the node at the target level whose
// entry chain should receive a rectangle, appending the nodes along the way
// to path. Subtree choice follows R*: minimum overlap enlargement when the
// children are leaves, minimum area enlargement otherwise, with area and
// size tie-breaks.
func (t *Tree) choosePath(path []*node, r geom.Rect, level int) []*node {
	n := t.root
	path = append(path, n)
	for n.level > level {
		best := t.chooseSubtree(n, r)
		n.entries[best].rect = n.entries[best].rect.Union(r)
		n = n.entries[best].child
		path = append(path, n)
	}
	return path
}

// chooseSubtree picks the entry of n that should receive r.
//
// At the leaf-parent level the R* criterion is the overlap enlargement
//
//	dOverlap(i) = Σ_{j≠i} area((rect_i ∪ r) ∩ rect_j) − Σ_{j≠i} area(rect_i ∩ rect_j)
//
// which costs 2(M−1) rectangle intersections per candidate. Three shortcuts
// skip most of them; each is an exact identity on the floating-point
// computation of the plain double loop (refChooseSubtree in the tests), not
// an approximation, so the choice — and with it the whole tree — is
// unchanged:
//
//   - containment: if rect_i ∪ r == rect_i the two sums are the same sequence
//     of additions, so dOverlap is exactly 0;
//   - disjoint sibling: a rect_j disjoint from rect_i ∪ r is disjoint from
//     rect_i too and adds +0 to both sums, which are sums of non-negative
//     terms and never −0, so skipping j leaves both bit-identical;
//   - dominated candidate: max, min, − and × are monotone under rounding, so
//     every term of the first sum is ≥ its partner in the second and
//     dOverlap ≥ 0 always. Once bestOverlap−1e-12 ≤ 0 the first clause of
//     the comparison below cannot fire, and a candidate whose enlargement
//     and area lose the tie-break (tie is false) cannot replace the best
//     whatever its dOverlap is. Candidates are still visited in index order,
//     so the tolerance-based (non-transitive) comparison sees the same
//     sequence of bests.
func (t *Tree) chooseSubtree(n *node, r geom.Rect) int {
	es := n.entries
	if n.level == 1 {
		// Children are leaves: minimize overlap enlargement.
		best, bestOverlap, bestEnl, bestArea := -1, math.Inf(1), math.Inf(1), math.Inf(1)
		for i := range es {
			ri := es[i].rect
			enlarged := ri.Union(r)
			area := ri.Area()
			enl := enlarged.Area() - area
			tie := enl < bestEnl-1e-12 || (almostEq(enl, bestEnl) && area < bestArea)
			if !tie && bestOverlap-1e-12 <= 0 {
				continue // dominated candidate
			}
			var dOverlap float64
			if enlarged != ri {
				var overlap, overlapNew float64
				for j := range es {
					rj := &es[j].rect
					if j == i || rj.Min.X > enlarged.Max.X || rj.Max.X < enlarged.Min.X ||
						rj.Min.Y > enlarged.Max.Y || rj.Max.Y < enlarged.Min.Y {
						continue // disjoint sibling (Intersects would re-test both for emptiness)
					}
					overlap += ri.OverlapArea(*rj)
					overlapNew += enlarged.OverlapArea(*rj)
				}
				dOverlap = overlapNew - overlap
			}
			if dOverlap < bestOverlap-1e-12 || (almostEq(dOverlap, bestOverlap) && tie) {
				best, bestOverlap, bestEnl, bestArea = i, dOverlap, enl, area
			}
		}
		return best
	}
	// Inner levels: minimize area enlargement, then area.
	best, bestEnl, bestArea := -1, math.Inf(1), math.Inf(1)
	for i := range es {
		enl := es[i].rect.Enlargement(r)
		area := es[i].rect.Area()
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
func (t *Tree) overflow(path []*node, idx int) {
	n := path[idx]
	isRoot := idx == 0
	if bit := uint64(1) << uint(n.level); !isRoot && t.reinserted&bit == 0 {
		t.reinserted |= bit
		t.reinsert(path, idx)
		return
	}
	t.split(path, idx)
}

// farKey orders a node's entries by distance from the node's center.
type farKey struct {
	dist2 float64
	idx   int
}

// reinsert removes the p entries of n farthest from its center and inserts
// them again from the top, which tends to rebalance hot regions without a
// split.
func (t *Tree) reinsert(path []*node, idx int) {
	n := path[idx]
	center := n.bounds().Center()
	far := t.far[:0]
	for i := range n.entries {
		far = append(far, farKey{n.entries[i].rect.Center().Dist2(center), i})
	}
	t.far = far
	// Farthest first. Ties fall where pdqsort leaves them, and which tied
	// entries make the cut below decides the tree, so this must stay the
	// sort.Slice permutation of the reference: slices.SortFunc instantiates
	// the same generated template and consults only cmp(a, b) < 0.
	slices.SortFunc(far, func(a, b farKey) int { return cmp.Compare(b.dist2, a.dist2) })
	p := int(reinsertFraction * float64(t.maxEntries))
	if p < 1 {
		p = 1
	}
	// Partition in entry order. The evicted go on a stack rather than a plain
	// scratch slice because reinserting one may overflow another level, whose
	// reinsert pushes its own evicted on top while this loop is still
	// draining.
	evict := far[:p]
	slices.SortFunc(evict, func(a, b farKey) int { return cmp.Compare(a.idx, b.idx) })
	base := len(t.evicted)
	kept := n.entries[:0]
	for i, e := range n.entries {
		if len(evict) > 0 && evict[0].idx == i {
			t.evicted = append(t.evicted, e)
			evict = evict[1:]
		} else {
			kept = append(kept, e)
		}
	}
	n.entries = kept
	t.tightenPath(path, idx)
	// Close reinsert: nearest evicted entries first.
	for i := len(t.evicted) - 1; i >= base; i-- {
		t.insertEntry(t.evicted[i], n.level)
	}
	clear(t.evicted[base:])
	t.evicted = t.evicted[:base]
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
func (t *Tree) split(path []*node, idx int) {
	n := path[idx]
	sibling := &node{leaf: n.leaf, level: n.level, entries: t.chooseSplit(n)}

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
		t.overflow(path[:idx], idx-1)
	}
}

// splitKey is one entry of an overflowing node under one of the four R*
// candidate sorts: by lower or by upper coordinate along x or y, the other
// bound of the same axis breaking ties.
type splitKey struct {
	primary, secondary float64
	idx                int // position in the node's entries
}

func cmpSplitKey(a, b splitKey) int {
	return cmp.Or(cmp.Compare(a.primary, b.primary), cmp.Compare(a.secondary, b.secondary))
}

// splitDist is the goodness of one candidate distribution.
type splitDist struct {
	overlap, area float64
}

// chooseSplit implements the R* split: pick the axis with the minimum sum of
// margins over all candidate distributions, then the distribution with the
// minimum overlap (area tie-break). It leaves the first group in n.entries
// and returns the second.
//
// The two group MBRs of every distribution of one sort come from a single
// suffix sweep and a running prefix instead of a fresh union per group: min
// and max are exact and associative, so the rectangles — and the margins,
// overlaps and areas computed from them — are the ones the per-group unions
// (refChooseSplit in the tests) produce. A stable sort has one valid result,
// so sorting keys instead of entries changes nothing either.
func (t *Tree) chooseSplit(n *node) (right []entry) {
	es := n.entries
	m := t.minEntries
	nd := len(es) - 2*m + 1 // distributions per sort: first group of m .. len(es)-m
	if cap(t.suffix) < len(es) {
		t.suffix = make([]geom.Rect, len(es))
		t.dists = make([]splitDist, 4*nd)
		for s := range t.keys {
			t.keys[s] = make([]splitKey, len(es))
		}
	}
	suffix, dists := t.suffix[:len(es)], t.dists[:4*nd]

	// Candidate sorts per axis: by lower then by upper coordinate. Summing
	// the margins of both sorts selects the split axis.
	var margin [4]float64
	for s := range t.keys {
		keys := t.keys[s][:len(es)]
		for i := range es {
			r := &es[i].rect
			switch s {
			case 0:
				keys[i] = splitKey{r.Min.X, r.Max.X, i}
			case 1:
				keys[i] = splitKey{r.Max.X, r.Min.X, i}
			case 2:
				keys[i] = splitKey{r.Min.Y, r.Max.Y, i}
			case 3:
				keys[i] = splitKey{r.Max.Y, r.Min.Y, i}
			}
		}
		slices.SortStableFunc(keys, cmpSplitKey)
		// suffix[k] bounds keys[k:]; lb grows to bound keys[:k].
		rb := geom.EmptyRect()
		for k := len(es) - 1; k >= m; k-- {
			rb = rb.Union(es[keys[k].idx].rect)
			suffix[k] = rb
		}
		lb := geom.EmptyRect()
		for k := 0; k < m-1; k++ {
			lb = lb.Union(es[keys[k].idx].rect)
		}
		for k := m; k <= len(es)-m; k++ {
			lb = lb.Union(es[keys[k-1].idx].rect)
			rb = suffix[k]
			margin[s] += lb.Margin() + rb.Margin()
			dists[s*nd+k-m] = splitDist{overlap: lb.OverlapArea(rb), area: lb.Area() + rb.Area()}
		}
	}

	// The candidates are the distributions of both sorts of the chosen axis,
	// lower-coordinate sort first: one contiguous run of dists.
	first := 0
	if margin[0]+margin[1] > margin[2]+margin[3] {
		first = 2 * nd
	}
	best := first
	for c := first + 1; c < first+2*nd; c++ {
		if d, b := dists[c], dists[best]; d.overlap < b.overlap-1e-12 ||
			(almostEq(d.overlap, b.overlap) && d.area < b.area) {
			best = c
		}
	}
	keys, k := t.keys[best/nd][:len(es)], best%nd+m

	// Both groups are built in fresh storage sized for a full node, so
	// neither ever regrows; the old backing array is garbage either way.
	left := make([]entry, k, t.maxEntries+1)
	right = make([]entry, len(es)-k, t.maxEntries+1)
	for i, key := range keys[:k] {
		left[i] = es[key.idx]
	}
	for i, key := range keys[k:] {
		right[i] = es[key.idx]
	}
	n.entries = left
	return right
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
		t.reinserted = 0
		t.insertEntry(e, orphanLevels[i])
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
