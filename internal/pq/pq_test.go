package pq

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refQueue is the container/heap queue the sift order is pinned to.
type refQueue []Item[int]

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].Key < q[j].Key }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(Item[int])) }
func (q *refQueue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// Interleaved pushes and pops with keys drawn from a small set, so most keys
// tie, must pop the same (key, value) sequence as container/heap: the values
// are push numbers, so a tie broken the other way shows as a wrong value.
func TestMatchesContainerHeap(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		keys := 1 + rng.Intn(6)
		var q Queue[int]
		var ref refQueue
		for op := 0; op < 400; op++ {
			if len(q) != len(ref) {
				t.Fatalf("seed %d op %d: len %d, container/heap %d", seed, op, len(q), len(ref))
			}
			if len(q) > 0 && (rng.Intn(5) < 2 || op >= 300) {
				got, want := q.Pop(), heap.Pop(&ref).(Item[int])
				if got != want {
					t.Fatalf("seed %d op %d: popped %+v, container/heap pops %+v", seed, op, got, want)
				}
				continue
			}
			k := float64(rng.Intn(keys))
			q.Push(k, op)
			heap.Push(&ref, Item[int]{Key: k, Val: op})
			if q[0] != ref[0] {
				t.Fatalf("seed %d op %d: minimum %+v, container/heap %+v", seed, op, q[0], ref[0])
			}
		}
	}
}
