// Package nn implements the nearest-neighbor search the paper builds on and
// extends:
//
//   - BestFirst / Iterator: the optimal incremental nearest-neighbor
//     algorithm of Hjaltason and Samet (TODS 1999), called INN by the paper.
//     It reports neighbors in ascending distance order and visits only the
//     minimally necessary nodes.
//   - EINN: the paper's extension of INN (§3.3) that accepts the branch
//     expanding lower and upper bounds derived from the SENN heap H and adds
//     the MAXDIST metric for downward pruning.
//
// There is one traversal, generic over the node type, and it owns its page
// count: the iterator that fetches a node is the only thing that counts the
// fetch. The R*-tree's own rtree.Node (by value; internal/pagestore's paged
// view returns it too) and the test referee's inserted tree both instantiate
// it directly. A result names its object by the int32 item number the index
// stores, never by a boxed value: the caller owns the table the number
// indexes.
package nn

import (
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/pq"
	"repro/internal/rtree"
)

// Result is one nearest neighbor: the item number stored in the index and
// the Euclidean distance from its point to the query point.
type Result struct {
	Ref  int32
	Dist float64
}

// Bounds carries the branch-expanding bounds of §3.3, extracted from the
// SENN heap H after peer verification.
//
// When HasLower is set, every point of interest at distance <= Lower from
// the query point is already known (certain) at the client, so the server
// skips leaf entries at distance <= Lower and prunes every MBR whose MAXDIST
// is <= Lower (the MBR lies entirely inside the certain circle C_r —
// downward pruning).
//
// When HasUpper is set, the client already holds k candidates within Upper,
// so every MBR with MINDIST > Upper is discarded (upward pruning).
type Bounds struct {
	Lower    float64
	HasLower bool
	Upper    float64
	HasUpper bool
}

// NoBounds is the neutral Bounds value: no pruning beyond plain best-first.
var NoBounds = Bounds{}

// lower returns the effective lower bound (-inf when absent).
func (b Bounds) lower() float64 {
	if b.HasLower {
		return b.Lower
	}
	return math.Inf(-1)
}

// upper returns the effective upper bound (+inf when absent).
func (b Bounds) upper() float64 {
	if b.HasUpper {
		return b.Upper
	}
	return math.Inf(1)
}

// ---------------------------------------------------------------------------
// Best-first incremental search (INN) and its bounded extension (EINN).

// Node is a read-only view of one index node.
type Node interface {
	// IsLeaf reports whether entries carry items rather than children.
	IsLeaf() bool
	// Len returns the entry count.
	Len() int
	// Rect returns the bounding rectangle of inner entry i.
	Rect(i int) geom.Rect
	// Point returns the location of leaf entry i.
	Point(i int) geom.Point
	// Ref returns the item number of leaf entry i, or the reference that
	// Tree.Node resolves to the child of inner entry i.
	Ref(i int) int32
}

// Tree is a spatial index the iterator can traverse. Root fetches the root
// node; ok is false for an empty index. Node fetches a child by the
// reference its parent's entry holds. Each fetch is one page read.
type Tree[N Node] interface {
	Root() (N, bool)
	Node(ref int32) N
}

// item is a value of the best-first priority queue, keyed by its distance:
// either a reference to a tree node awaiting expansion or an object (leaf
// entry) awaiting reporting. A node item holds only the child's reference,
// so the child page is fetched — and counted — only if and when the item is
// actually popped and expanded.
type item struct {
	ref    int32
	isNode bool
}

// Iterator performs incremental best-first nearest-neighbor search: INN
// under zero Bounds, EINN under client-derived Bounds. Next returns
// neighbors in non-decreasing distance order until the tree is exhausted or
// the upper bound cuts the search off. The zero value is ready for Reset;
// the priority queue survives Reset, so a reused iterator performs no heap
// allocations in steady state. An Iterator is owned by one traversal at a
// time.
type Iterator[N Node] struct {
	tree   Tree[N]
	query  geom.Point
	bounds Bounds
	pq     pq.Queue[item]
	pages  int64
}

// Reset starts a new search from q over t, honoring b: it fetches the root
// and queues its entries. The page count restarts at 1: the root fetch,
// counted even for an empty tree.
func (it *Iterator[N]) Reset(t Tree[N], q geom.Point, b Bounds) {
	it.tree = t
	it.query = q
	it.bounds = b
	it.pq = it.pq[:0]
	it.pages = 1
	if root, ok := t.Root(); ok {
		it.expand(root)
	}
}

// Pages returns the page reads performed since the last Reset: one for the
// root plus one per child fetched.
func (it *Iterator[N]) Pages() int64 { return it.pages }

// Next returns the next nearest neighbor beyond the lower bound, or ok=false
// when the search is exhausted (no more objects, or all remaining search
// paths exceed the upper bound).
func (it *Iterator[N]) Next() (Result, bool) {
	hi := it.bounds.upper()
	for len(it.pq) > 0 {
		top := it.pq.Pop()
		if top.Key > hi {
			// Everything still queued is at least this far: stop for good.
			it.pq = it.pq[:0]
			break
		}
		if !top.Val.isNode {
			return Result{Ref: top.Val.ref, Dist: top.Key}, true
		}
		it.pages++
		it.expand(it.tree.Node(top.Val.ref))
	}
	return Result{}, false
}

// expand queues the entries of nd that the bounds do not prune.
func (it *Iterator[N]) expand(nd N) {
	lo, hi := it.bounds.lower(), it.bounds.upper()
	if nd.IsLeaf() {
		for i := 0; i < nd.Len(); i++ {
			// The distance to a point is its degenerate rectangle's MINDIST,
			// bit for bit.
			d := it.query.Dist(nd.Point(i))
			if d > hi || d <= lo {
				continue // beyond the upper bound, or already certain at the client
			}
			it.pq.Push(d, item{ref: nd.Ref(i)})
		}
		return
	}
	for i := 0; i < nd.Len(); i++ {
		r := nd.Rect(i)
		mind := r.MinDist(it.query)
		if mind > hi {
			continue // upward pruning
		}
		if it.bounds.HasLower && r.MaxDist(it.query) <= lo {
			continue // downward pruning: MBR inside the certain circle
		}
		it.pq.Push(mind, item{ref: nd.Ref(i), isNode: true})
	}
}

// BestFirst returns the k nearest neighbors of q in ascending distance order
// using the optimal incremental algorithm (INN), and the pages the traversal
// read. Fewer than k results are returned when the tree holds fewer objects.
func BestFirst[N Node](t Tree[N], q geom.Point, k int) ([]Result, int64) {
	return EINN(t, q, k, NoBounds)
}

// EINN returns the k nearest neighbors of q at distance greater than the
// lower bound, using best-first search with the paper's pruning rules, and
// the pages the traversal read. k <= 0 performs no traversal at all — not
// even the root fetch — and reads 0 pages.
func EINN[N Node](t Tree[N], q geom.Point, k int, b Bounds) ([]Result, int64) {
	if k <= 0 {
		return nil, 0
	}
	var it Iterator[N]
	it.Reset(t, q, b)
	out := make([]Result, 0, k)
	for len(out) < k {
		r, ok := it.Next()
		if !ok {
			break
		}
		out = append(out, r)
	}
	return out, it.Pages()
}

// ---------------------------------------------------------------------------
// Brute-force reference.

// BruteForce scans every stored object and returns the k nearest neighbors
// of q in ascending distance order. It exists as the correctness oracle for
// tests and small workloads.
func BruteForce(t *rtree.Tree, q geom.Point, k int) []Result {
	if k <= 0 {
		return nil
	}
	var all []Result
	t.All(func(p geom.Point, ref int32) bool {
		all = append(all, Result{Ref: ref, Dist: q.Dist(p)})
		return true
	})
	sort.Slice(all, func(i, j int) bool { return all[i].Dist < all[j].Dist })
	if len(all) > k {
		all = all[:k]
	}
	return all
}
