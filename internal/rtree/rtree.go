// Package rtree implements the R*-tree of Beckmann, Kriegel, Schneider and
// Seeger (SIGMOD 1990), the disk-based spatial index the paper's database
// server uses to store points of interest. It indexes points: a value is the
// caller's int32 item number (its row in the caller's own table), stored next
// to the point it lives at.
//
// A point set known in full is indexed by Build, which packs the tree
// top-down (build.go): every index the repository serves or simulates is
// built that way, and nothing outside this package calls InsertPoint. The R*
// algorithms proper — insertion with forced reinsertion, the topological
// split, deletion with tree condensation — are the mutation API (a packed
// tree meets their invariants), and the tree they grow point by point is the
// reference the tests measure the packed one against. Reading is rectangle
// range search and a read-only node traversal API that the kNN algorithms in
// internal/nn build on. The tree keeps no query-time state: a traversal
// counts the pages it reads itself (Search returns its count, nn.Iterator
// keeps its own), so concurrent readers share nothing mutable.
//
// Nodes live in pointer-free arenas addressed by int32 node id (DESIGN.md
// §10): the collector never traces the index, and a node is one contiguous
// run of slots, as a disk page is.
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

// node is one row of the node table. Its entries are the first count slots
// of run number run in the leaf arena (level 0) or the inner arena.
type node struct {
	level int32 // 0 = leaf; -1 = on the free list
	count int32 // entries in use; on the free list, the next free node id
	run   int32
}

// entry is a slot as the insertion algorithm sees it: a rectangle (degenerate
// at leaf level) plus the item number (leaf) or child node id (inner).
type entry struct {
	rect geom.Rect
	ref  int32
}

// Tree is an R*-tree mapping points to int32 item numbers. The zero value is
// not usable; construct with New. Tree is not safe for concurrent mutation;
// concurrent read-only use is safe.
type Tree struct {
	root       int32
	minEntries int
	maxEntries int
	size       int

	// A node owns a run of stride = maxEntries+1 slots (one spare for the
	// entry that overflows it). Leaf slot s is leafPts[s] + leafRefs[s], 20 B;
	// inner slot s is innerRects[s] + innerKids[s], 36 B. No pointers.
	stride     int
	nodes      []node
	leafPts    []geom.Point
	leafRefs   []int32
	innerRects []geom.Rect
	innerKids  []int32
	// Free lists of leaf ([0]) and inner ([1]) nodes, threaded through
	// node.count, -1 when empty. A freed node keeps its run.
	free [2]int32

	// Insert-path scratch, reused so that a steady-state Insert allocates
	// only when an arena grows.
	reinserted uint64        // bit l: level l already force-reinserted during the current outer insert
	evicted    []entry       // stack of entries awaiting forced reinsertion
	far        []farKey      // reinsert's distance sort
	over       []entry       // chooseSplit's copy of the overflowing node
	keys       [4][]splitKey // chooseSplit's four candidate sorts
	suffix     []geom.Rect   // chooseSplit's second-group MBRs
	dists      []splitDist   // chooseSplit's candidate distributions
}

// New returns an empty tree with the given maximum node fan-out. The minimum
// fill is set to 40 % of max, the R*-tree authors' recommendation. maxEntries
// must be at least 4.
func New(maxEntries int) *Tree {
	t := newTree(maxEntries)
	t.root = t.newNode(0)
	return t
}

// newTree returns a tree with no nodes, not even a root.
func newTree(maxEntries int) *Tree {
	if maxEntries < 4 {
		panic(fmt.Sprintf("rtree: maxEntries must be >= 4, got %d", maxEntries))
	}
	return &Tree{
		minEntries: max(maxEntries*2/5, 2),
		maxEntries: maxEntries,
		stride:     maxEntries + 1,
		free:       [2]int32{-1, -1},
	}
}

// NewDefault returns an empty tree with the paper's branching factor of 30.
func NewDefault() *Tree { return New(DefaultMaxEntries) }

// Len returns the number of stored values.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels in the tree (1 for a tree that is a
// single leaf).
func (t *Tree) Height() int { return int(t.nodes[t.root].level) + 1 }

// Nodes returns the number of nodes — pages — in the arenas, freed ones included.
func (t *Tree) Nodes() int { return len(t.nodes) }

// Bounds returns the MBR of all stored values.
func (t *Tree) Bounds() geom.Rect { return t.bounds(t.root) }

// Bytes returns the memory the index occupies (not the caller's item table):
// 12 B per node, 20 B per leaf slot, 36 B per inner slot, from arena lengths.
func (t *Tree) Bytes() int64 {
	return 12*int64(len(t.nodes)) + 20*int64(len(t.leafRefs)) + 36*int64(len(t.innerKids))
}

// newNode returns an empty node, reusing a freed one of the same kind if it
// can. It may move the arenas: slices and *node taken before it are stale.
func (t *Tree) newNode(level int32) int32 {
	free := &t.free[min(level, 1)]
	if id := *free; id >= 0 {
		n := &t.nodes[id]
		*free = n.count
		n.level, n.count = level, 0
		return id
	}
	var run int
	if level == 0 {
		run = len(t.leafRefs) / t.stride
		t.leafPts = append(t.leafPts, make([]geom.Point, t.stride)...)
		t.leafRefs = append(t.leafRefs, make([]int32, t.stride)...)
	} else {
		run = len(t.innerKids) / t.stride
		t.innerRects = append(t.innerRects, make([]geom.Rect, t.stride)...)
		t.innerKids = append(t.innerKids, make([]int32, t.stride)...)
	}
	t.nodes = append(t.nodes, node{level: level, run: int32(run)})
	return int32(len(t.nodes) - 1)
}

// freeNode puts an unlinked node on the free list of its kind.
func (t *Tree) freeNode(id int32) {
	n := &t.nodes[id]
	free := &t.free[min(n.level, 1)]
	n.level, n.count = -1, *free
	*free = id
}

// slots returns the arena range [lo, hi) holding the entries of node id.
func (t *Tree) slots(id int32) (lo, hi int) {
	n := &t.nodes[id]
	lo = int(n.run) * t.stride
	return lo, lo + int(n.count)
}

// entryAt reads slot s (an arena index) of a node at the given level.
func (t *Tree) entryAt(level int32, s int) entry {
	if level == 0 {
		return entry{rect: geom.RectFromPoint(t.leafPts[s]), ref: t.leafRefs[s]}
	}
	return entry{rect: t.innerRects[s], ref: t.innerKids[s]}
}

// setEntry writes slot s of a node at the given level.
func (t *Tree) setEntry(level int32, s int, e entry) {
	if level == 0 {
		t.leafPts[s], t.leafRefs[s] = e.rect.Min, e.ref
	} else {
		t.innerRects[s], t.innerKids[s] = e.rect, e.ref
	}
}

// push appends e to node id, which must have a free slot.
func (t *Tree) push(id int32, e entry) {
	n := &t.nodes[id]
	t.setEntry(n.level, int(n.run)*t.stride+int(n.count), e)
	n.count++
}

// removeSlot deletes arena slot s of node id, keeping the order of the rest.
func (t *Tree) removeSlot(id int32, s int) {
	n := &t.nodes[id]
	for _, hi := t.slots(id); s < hi-1; s++ {
		t.setEntry(n.level, s, t.entryAt(n.level, s+1))
	}
	n.count--
}

// childSlot returns the arena index of parent's entry for child.
func (t *Tree) childSlot(parent, child int32) int {
	lo, hi := t.slots(parent)
	return lo + slices.Index(t.innerKids[lo:hi], child)
}

func (t *Tree) bounds(id int32) geom.Rect {
	r, level := geom.EmptyRect(), t.nodes[id].level
	lo, hi := t.slots(id)
	for s := lo; s < hi; s++ {
		r = r.Union(t.entryAt(level, s).rect)
	}
	return r
}

// InsertPoint stores item number ref at p.
func (t *Tree) InsertPoint(p geom.Point, ref int32) {
	t.reinserted = 0
	t.insertEntry(entry{rect: geom.RectFromPoint(p), ref: ref}, 0)
	t.size++
}

// insertEntry inserts e at the given level. t.reinserted tracks which levels
// already performed a forced reinsertion during the current outer insert so
// each level reinserts at most once (the R* rule).
func (t *Tree) insertEntry(e entry, level int32) {
	// The path lives in this frame, not on the Tree: a forced reinsertion
	// below re-enters insertEntry while this frame still walks its own path.
	var buf [maxHeight]int32
	path := t.choosePath(buf[:0], e.rect, level)
	t.push(path[len(path)-1], e)
	// Walk back up, handling overflow and tightening parent rectangles.
	for i := len(path) - 1; i >= 0; i-- {
		if int(t.nodes[path[i]].count) > t.maxEntries {
			t.overflow(path, i)
		}
	}
}

// choosePath descends from the root to the node at the target level whose
// entry chain should receive a rectangle, appending the nodes along the way
// to path. Subtree choice follows R*: minimum overlap enlargement when the
// children are leaves, minimum area enlargement otherwise, with area and
// size tie-breaks.
func (t *Tree) choosePath(path []int32, r geom.Rect, level int32) []int32 {
	id := t.root
	path = append(path, id)
	for t.nodes[id].level > level {
		lo, hi := t.slots(id)
		es := t.innerRects[lo:hi]
		best := chooseSubtree(es, t.nodes[id].level == 1, r)
		es[best] = es[best].Union(r)
		id = t.innerKids[lo+best]
		path = append(path, id)
	}
	return path
}

// chooseSubtree picks the entry of an inner node (rectangles es) to receive r.
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
func chooseSubtree(es []geom.Rect, leafParent bool, r geom.Rect) int {
	if leafParent {
		// Children are leaves: minimize overlap enlargement.
		best, bestOverlap, bestEnl, bestArea := -1, math.Inf(1), math.Inf(1), math.Inf(1)
		for i := range es {
			ri := es[i]
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
					rj := &es[j]
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
		enl := es[i].Enlargement(r)
		area := es[i].Area()
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
func (t *Tree) overflow(path []int32, idx int) {
	if bit := uint64(1) << uint(t.nodes[path[idx]].level); idx > 0 && t.reinserted&bit == 0 {
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
func (t *Tree) reinsert(path []int32, idx int) {
	id := path[idx]
	level := t.nodes[id].level
	lo, hi := t.slots(id)
	center := t.bounds(id).Center()
	far := t.far[:0]
	for s := lo; s < hi; s++ {
		far = append(far, farKey{t.entryAt(level, s).rect.Center().Dist2(center), s - lo})
	}
	t.far = far
	// Farthest first. Ties fall where pdqsort leaves them, and which tied
	// entries make the cut below decides the tree, so this must stay the
	// sort.Slice permutation of the reference: slices.SortFunc instantiates
	// the same generated template and consults only cmp(a, b) < 0.
	slices.SortFunc(far, func(a, b farKey) int { return cmp.Compare(b.dist2, a.dist2) })
	p := max(int(reinsertFraction*float64(t.maxEntries)), 1)
	// Partition in entry order. The evicted go on a stack rather than a plain
	// scratch slice because reinserting one may overflow another level, whose
	// reinsert pushes its own evicted on top while this loop is still
	// draining.
	evict := far[:p]
	slices.SortFunc(evict, func(a, b farKey) int { return cmp.Compare(a.idx, b.idx) })
	base := len(t.evicted)
	kept := lo
	for s := lo; s < hi; s++ {
		e := t.entryAt(level, s)
		if len(evict) > 0 && evict[0].idx == s-lo {
			t.evicted = append(t.evicted, e)
			evict = evict[1:]
		} else {
			t.setEntry(level, kept, e)
			kept++
		}
	}
	t.nodes[id].count = int32(kept - lo)
	t.tightenPath(path, idx)
	// Close reinsert: nearest evicted entries first.
	for i := len(t.evicted) - 1; i >= base; i-- {
		t.insertEntry(t.evicted[i], level)
	}
	t.evicted = t.evicted[:base]
}

// tightenPath recomputes the parent rectangles covering path[idx] up to the
// root.
func (t *Tree) tightenPath(path []int32, idx int) {
	for i := idx - 1; i >= 0; i-- {
		t.innerRects[t.childSlot(path[i], path[i+1])] = t.bounds(path[i+1])
	}
}

// split performs the R* topological split of path[idx] and pushes the new
// sibling into the parent, growing the tree at the root if needed.
func (t *Tree) split(path []int32, idx int) {
	id := path[idx]
	level := t.nodes[id].level
	sibling := t.newNode(level)
	t.chooseSplit(id, sibling)

	if idx == 0 {
		// Root split: grow the tree.
		t.root = t.newNode(level + 1)
		t.push(t.root, entry{rect: t.bounds(id), ref: id})
		t.push(t.root, entry{rect: t.bounds(sibling), ref: sibling})
		return
	}
	parent := path[idx-1]
	t.innerRects[t.childSlot(parent, id)] = t.bounds(id)
	t.push(parent, entry{rect: t.bounds(sibling), ref: sibling})
	t.tightenPath(path, idx-1)
	if int(t.nodes[parent].count) > t.maxEntries {
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
// minimum overlap (area tie-break). It leaves the first group in node id and
// puts the second in the empty node sibling.
//
// The two group MBRs of every distribution of one sort come from a single
// suffix sweep and a running prefix instead of a fresh union per group: min
// and max are exact and associative, so the rectangles — and the margins,
// overlaps and areas computed from them — are the ones the per-group unions
// (refChooseSplit in the tests) produce. A stable sort has one valid result,
// so sorting keys instead of entries changes nothing either.
func (t *Tree) chooseSplit(id, sibling int32) {
	level := t.nodes[id].level
	lo, hi := t.slots(id)
	es := t.over[:0]
	for s := lo; s < hi; s++ {
		es = append(es, t.entryAt(level, s))
	}
	t.over = es
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

	// es is a copy, so the first group overwrites the node's own run.
	for i, key := range keys[:k] {
		t.setEntry(level, lo+i, es[key.idx])
	}
	t.nodes[id].count = int32(k)
	for _, key := range keys[k:] {
		t.push(sibling, es[key.idx])
	}
}

// DeletePoint removes item number ref stored at p. It reports whether a
// matching entry was found.
func (t *Tree) DeletePoint(p geom.Point, ref int32) bool {
	var buf [maxHeight]int32
	path, slot := t.findLeaf(t.root, buf[:0], p, ref)
	if path == nil {
		return false
	}
	t.removeSlot(path[len(path)-1], slot)
	t.size--
	t.condense(path)
	return true
}

func (t *Tree) findLeaf(id int32, path []int32, p geom.Point, ref int32) ([]int32, int) {
	path = append(path, id)
	lo, hi := t.slots(id)
	if t.nodes[id].level == 0 {
		for s := lo; s < hi; s++ {
			if t.leafRefs[s] == ref && t.leafPts[s] == p {
				return path, s
			}
		}
		return nil, -1
	}
	for s := lo; s < hi; s++ {
		if t.innerRects[s].Contains(p) {
			if found, slot := t.findLeaf(t.innerKids[s], path, p, ref); found != nil {
				return found, slot
			}
		}
	}
	return nil, -1
}

// orphan is an entry of a dissolved node and the level it must re-enter at.
type orphan struct {
	entry
	level int32
}

// condense removes underfull nodes along the path and reinserts their
// orphaned entries, then shrinks the root if it has a single child.
func (t *Tree) condense(path []int32) {
	var orphans []orphan
	for i := len(path) - 1; i >= 1; i-- {
		id, parent := path[i], path[i-1]
		slot := t.childSlot(parent, id)
		if int(t.nodes[id].count) >= t.minEntries {
			t.innerRects[slot] = t.bounds(id)
			continue
		}
		t.removeSlot(parent, slot)
		level := t.nodes[id].level
		lo, hi := t.slots(id)
		for s := lo; s < hi; s++ {
			orphans = append(orphans, orphan{t.entryAt(level, s), level})
		}
		t.freeNode(id)
	}
	for _, o := range orphans {
		t.reinserted = 0
		t.insertEntry(o.entry, o.level)
	}
	// Shrink a non-leaf root with a single child.
	for t.nodes[t.root].level > 0 && t.nodes[t.root].count == 1 {
		lo, _ := t.slots(t.root)
		child := t.innerKids[lo]
		t.freeNode(t.root)
		t.root = child
	}
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
// via Root, Child or Node — is one page read, which the traversal counts. A
// view is valid until the tree is next mutated.
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
	return Node{t: t, lo: n.run * int32(t.stride), n: n.count, level: n.level}
}

// IsLeaf reports whether the node's entries carry items rather than children.
func (nd Node) IsLeaf() bool { return nd.level == 0 }

// Level returns the node's height above the leaves (0 for a leaf).
func (nd Node) Level() int { return int(nd.level) }

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

// CheckInvariants validates the structural invariants of the tree and
// returns a descriptive error on the first violation. It is exported for use
// by tests and fuzzing harnesses.
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
	// Every node is either in the tree or on a free list: none leaks.
	for _, head := range t.free {
		for id := head; id >= 0; id = t.nodes[id].count {
			if t.nodes[id].level != -1 {
				return fmt.Errorf("free list holds live node %d (level %d)", id, t.nodes[id].level)
			}
			reached++
		}
	}
	if reached != len(t.nodes) {
		return fmt.Errorf("%d nodes in the tree or free, node table holds %d", reached, len(t.nodes))
	}
	return nil
}
