package rtreetest

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// check walks the subtree under n and returns the number of items in it, or
// the first broken R* invariant: fill between m and M below the root, one
// level per depth, and every inner rectangle exactly its child's bounds.
func (t *Tree) check(n *Node, level int) (int, error) {
	switch {
	case n.level != level:
		return 0, fmt.Errorf("node %d: level %d, want %d", n.id, n.level, level)
	case len(n.entries) > t.maxEntries || n != t.root && len(n.entries) < t.minEntries:
		return 0, fmt.Errorf("node %d holds %d entries", n.id, len(n.entries))
	case level == 0:
		return len(n.entries), nil
	}
	items := 0
	for _, e := range n.entries {
		if e.rect != e.child.bounds() {
			return 0, fmt.Errorf("node %d: entry %v for child bounds %v", n.id, e.rect, e.child.bounds())
		}
		c, err := t.check(e.child, level-1)
		if err != nil {
			return 0, err
		}
		items += c
	}
	return items, nil
}

// Clustered points, which drive forced reinsertion and splits at every
// level, and duplicates, which tie every comparison: the grown tree keeps the
// R* invariants and its node view yields every item once, at its point.
func TestInsertKeepsInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var pts []geom.Point
	for range 20 {
		cx, cy := rng.Float64()*1000, rng.Float64()*1000
		for range 100 {
			pts = append(pts, geom.Pt(cx+rng.NormFloat64(), cy+rng.NormFloat64()))
		}
	}
	for range 300 {
		pts = append(pts, geom.Pt(7, 7))
	}
	for _, fanout := range []int{4, 10, 30} {
		tr := Insert(fanout, len(pts), func(i int) geom.Point { return pts[i] })
		if items, err := tr.check(tr.root, tr.root.level); err != nil || items != len(pts) {
			t.Fatalf("fanout=%d: %d items, want %d: %v", fanout, items, len(pts), err)
		}
		seen := make([]bool, len(pts))
		var walk func(n *Node)
		walk = func(n *Node) {
			for i := 0; i < n.Len(); i++ {
				if !n.IsLeaf() {
					walk(tr.Node(n.Ref(i)))
					continue
				}
				if ref := n.Ref(i); seen[ref] || n.Point(i) != pts[ref] {
					t.Fatalf("fanout=%d: item %d at %v seen twice or misplaced", fanout, ref, n.Point(i))
				} else {
					seen[ref] = true
				}
			}
		}
		root, _ := tr.Root()
		walk(root)
	}
}
