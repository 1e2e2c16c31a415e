// Package pagestore models the paged storage behind the paper's I/O
// discussion (§4.4): "at the end of a spectrum there are two extreme I/O
// behaviors of the spatial database server: all requested memory pages are
// found in main memory or every I/O leads to disk activity."
//
// The modelled file is the R*-tree packed one node per 4 KiB page behind a
// header page. Whether a fetch hits the buffer or faults to disk depends on
// which page it asks for, not on what the page holds, so the model keeps no
// page bytes: BufferPool is an LRU over page ids with hit and miss counters,
// and Tree is a view of an *rtree.Tree whose every node fetch is one pool
// access. Running INN/EINN over a Tree reports buffer hits versus disk
// faults, locating a configuration anywhere between the paper's two
// extremes by sizing the pool.
package pagestore

import "repro/internal/rtree"

// A page id is the rtree.Tree.Node reference of the node the page holds. The
// header page and the root have no parent entry to name them, so they take
// the two negative ids.
const (
	headerPage int32 = -2
	rootPage   int32 = -1
)

// frame is one resident page in the LRU list.
type frame struct {
	id         int32
	prev, next *frame
}

// BufferPool is an LRU set of resident page ids with hit and miss counters.
// It is for single-goroutine use: concurrent experiment runners give every
// task its own pool.
type BufferPool struct {
	capacity int
	frames   map[int32]*frame
	// LRU list: head = most recently used.
	head, tail *frame

	hits, misses int64
}

// NewBufferPool returns an empty pool of capacity pages. capacity must be at
// least 1.
func NewBufferPool(capacity int) *BufferPool {
	if capacity < 1 {
		panic("pagestore: buffer pool capacity must be >= 1")
	}
	return &BufferPool{capacity: capacity, frames: make(map[int32]*frame, capacity)}
}

// Access records one fetch of page id: a hit when the page is resident,
// otherwise a miss that reads it in, evicting the least recently used page
// when the pool is full.
func (bp *BufferPool) Access(id int32) {
	fr, ok := bp.frames[id]
	if ok {
		bp.hits++
		bp.unlink(fr)
	} else {
		bp.misses++
		if len(bp.frames) < bp.capacity {
			fr = &frame{}
		} else {
			fr = bp.tail
			bp.unlink(fr)
			delete(bp.frames, fr.id)
		}
		fr.id = id
		bp.frames[id] = fr
	}
	fr.next = bp.head
	if bp.head != nil {
		bp.head.prev = fr
	}
	bp.head = fr
	if bp.tail == nil {
		bp.tail = fr
	}
}

// Stats returns buffer hits and misses since the last reset.
func (bp *BufferPool) Stats() (hits, misses int64) { return bp.hits, bp.misses }

// HitRate returns the fraction of accesses served from memory.
func (bp *BufferPool) HitRate() float64 {
	total := bp.hits + bp.misses
	if total == 0 {
		return 0
	}
	return float64(bp.hits) / float64(total)
}

// ResetStats zeroes the hit/miss counters.
func (bp *BufferPool) ResetStats() { bp.hits, bp.misses = 0, 0 }

func (bp *BufferPool) unlink(fr *frame) {
	if fr.prev != nil {
		fr.prev.next = fr.next
	} else {
		bp.head = fr.next
	}
	if fr.next != nil {
		fr.next.prev = fr.prev
	} else {
		bp.tail = fr.prev
	}
	fr.prev, fr.next = nil, nil
}

// Pages returns the page count of t's packed file: the header and one page
// per node.
func Pages(t *rtree.Tree) int { return 1 + t.Nodes() }

// Tree is an *rtree.Tree read through a buffer pool. Root and Node record
// one pool access per fetch and return the tree's own nodes, so the generic
// iterator in internal/nn traverses it unchanged.
type Tree struct {
	tree *rtree.Tree
	pool *BufferPool
}

// Open returns t behind an empty pool of poolPages pages, after reading the
// header page once, as opening the packed file would.
func Open(t *rtree.Tree, poolPages int) *Tree {
	pool := NewBufferPool(poolPages)
	pool.Access(headerPage)
	return &Tree{tree: t, pool: pool}
}

// Pool exposes the buffer pool for statistics.
func (pt *Tree) Pool() *BufferPool { return pt.pool }

// Root fetches the root page. ok is false for an empty tree.
func (pt *Tree) Root() (rtree.Node, bool) {
	pt.pool.Access(rootPage)
	return pt.tree.Root()
}

// Node fetches the page of the node an inner entry's Ref names.
func (pt *Tree) Node(ref int32) rtree.Node {
	pt.pool.Access(ref)
	return pt.tree.Node(ref)
}
