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
// fetch. The in-memory R*-tree (rtree.Node, by value) and the disk-backed
// packed tree (internal/pagestore) both instantiate it directly.
package nn

import (
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// Result is one nearest neighbor: the indexed rectangle's representative
// point (its center — for the point data used throughout this system the
// point itself), the stored value, and the Euclidean distance to the query
// point.
type Result struct {
	Point geom.Point
	Data  any
	Dist  float64
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

// Node is a read-only view of one index node; N is the implementing type
// itself, so Child returns a concrete node and nothing is boxed.
type Node[N any] interface {
	// IsLeaf reports whether entries carry data rather than children.
	IsLeaf() bool
	// Len returns the entry count.
	Len() int
	// Rect returns the bounding rectangle of entry i.
	Rect(i int) geom.Rect
	// Data returns the value of leaf entry i.
	Data(i int) any
	// Child fetches the child node of inner entry i: one page read.
	Child(i int) N
}

// Tree is a spatial index the iterator can traverse. Root fetches the root
// node (one page read); ok is false for an empty index.
type Tree[N any] interface {
	Root() (N, bool)
}

// item is an entry of the best-first priority queue: either a reference to a
// tree node awaiting expansion or an object (leaf entry) awaiting reporting.
// Node references hold the parent and the entry index so the child page is
// fetched — and counted — only if and when the item is actually popped and
// expanded. N is held by value, never as an interface, which is what keeps
// the traversal free of allocations.
type item[N any] struct {
	dist     float64
	isNode   bool
	parent   N // the node itself when isRoot; the owner of childIdx otherwise
	childIdx int
	isRoot   bool
	rect     geom.Rect
	data     any
}

// Iterator performs incremental best-first nearest-neighbor search: INN
// under zero Bounds, EINN under client-derived Bounds. Next returns
// neighbors in non-decreasing distance order until the tree is exhausted or
// the upper bound cuts the search off. The zero value is ready for Reset;
// the priority queue survives Reset, so a reused iterator performs no heap
// allocations in steady state. An Iterator is owned by one traversal at a
// time.
type Iterator[N Node[N]] struct {
	query  geom.Point
	bounds Bounds
	pq     []item[N]
	pages  int64
	done   bool
}

// Reset starts a new search from q over t, honoring b. The page count
// restarts at 1: the root fetch, counted even for an empty tree.
func (it *Iterator[N]) Reset(t Tree[N], q geom.Point, b Bounds) {
	it.query = q
	it.bounds = b
	it.pq = it.pq[:0]
	it.pages = 1
	it.done = false
	root, ok := t.Root()
	if !ok {
		it.done = true
		return
	}
	it.pq = append(it.pq, item[N]{dist: 0, isNode: true, isRoot: true, parent: root})
}

// Pages returns the page reads performed since the last Reset: one for the
// root plus one per child fetched.
func (it *Iterator[N]) Pages() int64 { return it.pages }

// Next returns the next nearest neighbor beyond the lower bound, or ok=false
// when the search is exhausted (no more objects, or all remaining search
// paths exceed the upper bound).
func (it *Iterator[N]) Next() (Result, bool) {
	lo, hi := it.bounds.lower(), it.bounds.upper()
	for !it.done && len(it.pq) > 0 {
		top := it.pop()
		if top.dist > hi {
			// Everything still queued is at least this far: stop for good.
			it.done = true
			return Result{}, false
		}
		if !top.isNode {
			return Result{Point: top.rect.Center(), Data: top.data, Dist: top.dist}, true
		}
		nd := top.parent
		if !top.isRoot {
			nd = top.parent.Child(top.childIdx)
			it.pages++
		}
		for i := 0; i < nd.Len(); i++ {
			r := nd.Rect(i)
			mind := r.MinDist(it.query)
			if mind > hi {
				continue // upward pruning
			}
			if nd.IsLeaf() {
				if mind <= lo {
					continue // object already certain at the client
				}
				it.push(item[N]{dist: mind, rect: r, data: nd.Data(i)})
				continue
			}
			if it.bounds.HasLower && r.MaxDist(it.query) <= lo {
				continue // downward pruning: MBR inside the certain circle
			}
			it.push(item[N]{dist: mind, isNode: true, parent: nd, childIdx: i})
		}
	}
	it.done = true
	return Result{}, false
}

// push, pop, up and down follow the standard library heap's sift order, ties
// included: the visit order among equal distances — and with it result tie
// order and page counts — is pinned against a reference built on that
// package in internal/sim's tests.
func (it *Iterator[N]) push(x item[N]) {
	it.pq = append(it.pq, x)
	it.up(len(it.pq) - 1)
}

func (it *Iterator[N]) pop() item[N] {
	n := len(it.pq) - 1
	it.pq[0], it.pq[n] = it.pq[n], it.pq[0]
	it.down(0, n)
	x := it.pq[n]
	it.pq = it.pq[:n]
	return x
}

func (it *Iterator[N]) up(j int) {
	pq := it.pq
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(pq[j].dist < pq[i].dist) {
			break
		}
		pq[i], pq[j] = pq[j], pq[i]
		j = i
	}
}

func (it *Iterator[N]) down(i0, n int) {
	pq := it.pq
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && pq[j2].dist < pq[j1].dist {
			j = j2
		}
		if !(pq[j].dist < pq[i].dist) {
			break
		}
		pq[i], pq[j] = pq[j], pq[i]
		i = j
	}
}

// BestFirst returns the k nearest neighbors of q in ascending distance order
// using the optimal incremental algorithm (INN), and the pages the traversal
// read. Fewer than k results are returned when the tree holds fewer objects.
func BestFirst[N Node[N]](t Tree[N], q geom.Point, k int) ([]Result, int64) {
	return EINN(t, q, k, NoBounds)
}

// EINN returns the k nearest neighbors of q at distance greater than the
// lower bound, using best-first search with the paper's pruning rules, and
// the pages the traversal read. k <= 0 performs no traversal at all — not
// even the root fetch — and reads 0 pages.
func EINN[N Node[N]](t Tree[N], q geom.Point, k int, b Bounds) ([]Result, int64) {
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
	t.All(func(r geom.Rect, data any) bool {
		p := r.Center()
		all = append(all, Result{Point: p, Data: data, Dist: q.Dist(p)})
		return true
	})
	sort.Slice(all, func(i, j int) bool { return all[i].Dist < all[j].Dist })
	if len(all) > k {
		all = all[:k]
	}
	return all
}
