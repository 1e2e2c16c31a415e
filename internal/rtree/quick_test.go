package rtree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

// sanitize maps arbitrary floats into a bounded coordinate.
func sanitize(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 1e5)
}

// Any batch of points must be fully retrievable through a covering search,
// and the tree invariants must hold afterwards.
func TestInsertRetrieveQuick(t *testing.T) {
	f := func(coords []float64) bool {
		tr := New(6)
		n := len(coords) / 2
		for i := 0; i < n; i++ {
			tr.InsertPoint(geom.Pt(sanitize(coords[2*i]), sanitize(coords[2*i+1])), int32(i))
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Log(err)
			return false
		}
		found := map[int]bool{}
		tr.Search(geom.NewRect(geom.Pt(-1e6, -1e6), geom.Pt(1e6, 1e6)), func(_ geom.Point, d int32) bool {
			found[int(d)] = true
			return true
		})
		return len(found) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Inserting then deleting any subset must leave exactly the complement, with
// invariants intact at every step.
func TestInsertDeleteComplementQuick(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%100) + 1
		tr := New(5)
		pts := make([]geom.Point, count)
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
			tr.InsertPoint(pts[i], int32(i))
		}
		removed := map[int]bool{}
		for i := 0; i < count; i++ {
			if rng.Float64() < 0.5 {
				if !tr.DeletePoint(pts[i], int32(i)) {
					t.Logf("delete %d failed", i)
					return false
				}
				removed[i] = true
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Log(err)
			return false
		}
		if tr.Len() != count-len(removed) {
			return false
		}
		left := map[int]bool{}
		tr.All(func(_ geom.Point, d int32) bool { left[int(d)] = true; return true })
		for i := 0; i < count; i++ {
			if removed[i] == left[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
