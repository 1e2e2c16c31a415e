// Package pq is the priority queue both of the paper's best-first searches
// run on: INN/EINN over the R*-tree (internal/nn, whose node pops are the
// page accesses) and the network expansion behind IER, SNNN and every road
// mover's route (internal/spatialnet's PathFinder).
//
// Pops follow container/heap's sift order, ties included: among equal keys
// the order is the one heap.Push and heap.Pop on the same operations give.
// Ties decide which of two equally distant nodes is fetched first (and so
// page counts) and which of two equally short routes a host drives, so the
// order is part of every figure; TestMatchesContainerHeap pins it.
package pq

// Item is one queue entry: a value and the key it is ordered by.
type Item[V any] struct {
	Key float64
	Val V
}

// Queue is a binary min-heap on Key; q[0] is the minimum. The zero value is
// an empty queue, and truncating it to q[:0] keeps its storage, so a reused
// queue allocates nothing once it has grown.
type Queue[V any] []Item[V]

// Push adds v under key.
func (q *Queue[V]) Push(key float64, v V) {
	*q = append(*q, Item[V]{Key: key, Val: v})
	h := *q
	j := len(h) - 1
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].Key < h[i].Key) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

// Pop removes and returns the item with the least key. The queue must not
// be empty.
func (q *Queue[V]) Pop() Item[V] {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n || j < 0 {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].Key < h[j].Key {
			j = j2
		}
		if !(h[j].Key < h[i].Key) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	*q = (*q)[:n] // a self-slice stores only the length
	return h[n]
}
