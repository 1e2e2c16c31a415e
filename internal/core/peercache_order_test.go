package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
)

// newPeerCacheSortSlice is NewPeerCache as it stood before SortByDistance:
// a private copy ordered by reflect-based sort.Slice on squared distance.
// Kept as the order oracle — every figure in results/ was produced with it,
// so SortByDistance must place exact-distance ties where it did.
func newPeerCacheSortSlice(queryLoc geom.Point, neighbors []POI) PeerCache {
	ns := make([]POI, len(neighbors))
	copy(ns, neighbors)
	sort.Slice(ns, func(i, j int) bool {
		return queryLoc.Dist2(ns[i].Loc) < queryLoc.Dist2(ns[j].Loc)
	})
	return PeerCache{QueryLoc: queryLoc, Neighbors: ns}
}

// samePOIs compares element for element, coordinates by bit pattern so that
// a +0 is not taken for the −0 it ties with.
func samePOIs(a, b []POI) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID ||
			math.Float64bits(a[i].Loc.X) != math.Float64bits(b[i].Loc.X) ||
			math.Float64bits(a[i].Loc.Y) != math.Float64bits(b[i].Loc.Y) {
			return false
		}
	}
	return true
}

// TestSortByDistanceMatchesSortSlice pins the tie order of the shared
// comparator: over random POI sets of every length 0..40 — continuous
// coordinates, a coarse lattice that forces exact distance ties, ±0
// coordinates, and each of them also pre-sorted and reversed —
// NewPeerCache (slices.SortFunc) must produce exactly the sequence the old
// sort.Slice body does, and must leave its input untouched.
func TestSortByDistanceMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	negZero := math.Copysign(0, -1)
	gens := []struct {
		name string
		gen  func() geom.Point
	}{
		{"continuous", func() geom.Point { return geom.Pt(rng.Float64()*100, rng.Float64()*100) }},
		// 5×5 lattice around the query point: at 40 POIs almost every
		// distance is shared, many of them by 4 or 8 points.
		{"lattice", func() geom.Point { return geom.Pt(float64(rng.Intn(5)-2), float64(rng.Intn(5)-2)) }},
		// Axis points whose zero coordinate is +0 or −0 at random: equal
		// distance, different bits.
		{"signed-zero", func() geom.Point {
			z := 0.0
			if rng.Intn(2) == 0 {
				z = negZero
			}
			if rng.Intn(2) == 0 {
				return geom.Pt(z, float64(rng.Intn(3)-1))
			}
			return geom.Pt(float64(rng.Intn(3)-1), z)
		}},
	}
	check := func(name string, q geom.Point, in []POI) {
		t.Helper()
		before := append([]POI(nil), in...)
		got := NewPeerCache(q, in)
		want := newPeerCacheSortSlice(q, in)
		if !samePOIs(in, before) {
			t.Fatalf("%s n=%d: NewPeerCache reordered its input", name, len(in))
		}
		if !samePOIs(got.Neighbors, want.Neighbors) {
			t.Fatalf("%s n=%d: order differs from sort.Slice\n got  %v\n want %v", name, len(in), got.Neighbors, want.Neighbors)
		}
		if got.QueryLoc != want.QueryLoc {
			t.Fatalf("%s: query location %v, want %v", name, got.QueryLoc, want.QueryLoc)
		}
	}
	for _, g := range gens {
		name, gen := g.name, g.gen
		for n := 0; n <= 40; n++ {
			for rep := 0; rep < 25; rep++ {
				q := geom.Pt(0, 0)
				if name == "continuous" {
					q = gen()
				}
				in := make([]POI, n)
				for i := range in {
					in[i] = POI{ID: int64(i + 1), Loc: gen()}
				}
				check(name, q, in)
				sorted := newPeerCacheSortSlice(q, in).Neighbors
				check(name+"/sorted", q, sorted)
				rev := make([]POI, n)
				for i, p := range sorted {
					rev[n-1-i] = p
				}
				check(name+"/reversed", q, rev)
			}
		}
	}
}

// The in-place sort is what every committed query runs; it must not
// allocate (the closure stays on the stack, there is no reflect swapper).
func TestSortByDistanceAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pois := make([]POI, 40)
	for i := range pois {
		pois[i] = POI{ID: int64(i), Loc: geom.Pt(rng.Float64(), rng.Float64())}
	}
	q := geom.Pt(0.5, 0.5)
	if allocs := testing.AllocsPerRun(100, func() {
		rng.Shuffle(len(pois), func(i, j int) { pois[i], pois[j] = pois[j], pois[i] })
		SortByDistance(q, pois)
	}); allocs != 0 {
		t.Errorf("SortByDistance allocates %v objects per call, want 0", allocs)
	}
}
