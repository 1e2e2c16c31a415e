package cache

import (
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
)

func pois(locs ...geom.Point) []core.POI {
	out := make([]core.POI, len(locs))
	for i, l := range locs {
		out[i] = core.POI{ID: int64(i + 1), Loc: l}
	}
	return out
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) should panic")
		}
	}()
	New(0)
}

func TestEmptyCache(t *testing.T) {
	c := New(5)
	if _, ok := c.Entry(); ok {
		t.Error("fresh cache should be empty")
	}
	if c.Capacity() != 5 {
		t.Errorf("Capacity = %d", c.Capacity())
	}
}

func TestStoreAndEntry(t *testing.T) {
	c := New(5)
	q := geom.Pt(0, 0)
	c.Store(q, pois(geom.Pt(1, 0), geom.Pt(3, 0), geom.Pt(2, 0)))
	e, ok := c.Entry()
	if !ok {
		t.Fatal("entry missing after store")
	}
	if !e.QueryLoc.Eq(q) {
		t.Errorf("query loc = %v", e.QueryLoc)
	}
	if len(e.Neighbors) != 3 {
		t.Fatalf("stored %d neighbors", len(e.Neighbors))
	}
	// Must be distance-sorted regardless of input order.
	if e.Neighbors[0].Loc.X != 1 || e.Neighbors[1].Loc.X != 2 || e.Neighbors[2].Loc.X != 3 {
		t.Errorf("neighbors not sorted: %v", e.Neighbors)
	}
}

// Policy 1: only the most recent query is kept.
func TestStoreReplacesPrevious(t *testing.T) {
	c := New(5)
	c.Store(geom.Pt(0, 0), pois(geom.Pt(1, 0)))
	c.Store(geom.Pt(10, 10), pois(geom.Pt(11, 10), geom.Pt(12, 10)))
	e, ok := c.Entry()
	if !ok || !e.QueryLoc.Eq(geom.Pt(10, 10)) || len(e.Neighbors) != 2 {
		t.Errorf("cache did not replace previous entry: %+v ok=%v", e, ok)
	}
}

// Capacity bounds the stored set, keeping the nearest POIs.
func TestStoreTrimsToCapacity(t *testing.T) {
	c := New(2)
	c.Store(geom.Pt(0, 0), pois(geom.Pt(3, 0), geom.Pt(1, 0), geom.Pt(2, 0), geom.Pt(4, 0)))
	e, _ := c.Entry()
	if len(e.Neighbors) != 2 {
		t.Fatalf("stored %d neighbors, capacity 2", len(e.Neighbors))
	}
	if e.Neighbors[0].Loc.X != 1 || e.Neighbors[1].Loc.X != 2 {
		t.Errorf("kept wrong neighbors: %v", e.Neighbors)
	}
	if e.Radius() != 2 {
		t.Errorf("radius = %v after trim, want 2", e.Radius())
	}
}

func TestStoreEmptyInvalidates(t *testing.T) {
	c := New(3)
	c.Store(geom.Pt(0, 0), pois(geom.Pt(1, 0)))
	c.Store(geom.Pt(5, 5), nil)
	if _, ok := c.Entry(); ok {
		t.Error("empty store should invalidate")
	}
}

// StagedWrite defers a cache-policy write so the simulator's resolve phase
// can stay read-only; Apply in commit order must behave exactly like an
// immediate Store.
func TestStagedWriteApply(t *testing.T) {
	c := New(5)
	w := Stage(geom.Pt(1, 1), pois(geom.Pt(3, 1), geom.Pt(2, 1)))
	if !w.Staged() {
		t.Error("Stage returned an unstaged write")
	}
	if _, ok := c.Entry(); ok {
		t.Error("staging alone must not touch the cache")
	}
	w.Apply(c)
	e, ok := c.Entry()
	if !ok || !e.QueryLoc.Eq(geom.Pt(1, 1)) {
		t.Fatalf("Apply did not store the entry: %+v ok=%v", e, ok)
	}
	if len(e.Neighbors) != 2 || e.Neighbors[0].Loc.X != 2 {
		t.Errorf("Apply bypassed Store's sorting: %v", e.Neighbors)
	}
}

// The zero StagedWrite is the "keep the previous entry" decision.
func TestStagedWriteZeroValueIsNoOp(t *testing.T) {
	c := New(3)
	c.Store(geom.Pt(0, 0), pois(geom.Pt(1, 0)))
	var w StagedWrite
	if w.Staged() {
		t.Error("zero StagedWrite reports staged")
	}
	w.Apply(c)
	e, ok := c.Entry()
	if !ok || !e.QueryLoc.Eq(geom.Pt(0, 0)) || len(e.Neighbors) != 1 {
		t.Errorf("zero-value Apply disturbed the cache: %+v ok=%v", e, ok)
	}
}

// A Store with no neighbors is the cache's only invalidation, and the cache
// holds the next entry normally afterwards.
func TestInvalidate(t *testing.T) {
	c := New(3)
	c.Store(geom.Pt(0, 0), pois(geom.Pt(1, 0)))
	c.Store(geom.Pt(0, 0), nil)
	if _, ok := c.Entry(); ok {
		t.Error("an empty Store did not clear the cache")
	}
	// Cache is reusable afterwards.
	c.Store(geom.Pt(1, 1), pois(geom.Pt(2, 1)))
	if _, ok := c.Entry(); !ok {
		t.Error("store after invalidate failed")
	}
}
