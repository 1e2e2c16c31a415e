package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// packedInputs are point sets for the packed-tree tests: on the lattice
// every query has neighbours at equal distances, and the duplicates are
// nothing but ties.
var packedInputs = []struct {
	name string
	gen  func(rng *rand.Rand, n int) []geom.Point
}{
	{"uniform", func(rng *rand.Rand, n int) []geom.Point {
		out := make([]geom.Point, n)
		for i := range out {
			out[i] = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		}
		return out
	}},
	{"clusters16", func(rng *rand.Rand, n int) []geom.Point {
		out := make([]geom.Point, n)
		for i := range out {
			c := float64(rng.Intn(16))
			out[i] = geom.Pt(60*c+rng.NormFloat64()*15, 1000-60*c+rng.NormFloat64()*15)
		}
		return out
	}},
	{"lattice", func(rng *rand.Rand, n int) []geom.Point {
		side := int(math.Ceil(math.Sqrt(float64(n))))
		out := make([]geom.Point, n)
		for i, j := range rng.Perm(n) {
			out[i] = geom.Pt(float64(j%side)*20, float64(j/side)*20)
		}
		return out
	}},
	{"duplicates", func(rng *rand.Rand, n int) []geom.Point {
		out := make([]geom.Point, n)
		for i := range out {
			out[i] = geom.Pt(7, -3)
		}
		return out
	}},
}

// kNN over the packed tree — the tree production builds — equals brute
// force with and without pruning bounds, ties included: the distances agree
// rank by rank, no item is reported twice, and each is at the distance
// reported for it.
func TestKNNOnPackedTreeMatchesBruteForce(t *testing.T) {
	for _, in := range packedInputs {
		for _, fanout := range []int{4, 8, 30} {
			rng := rand.New(rand.NewSource(int64(fanout)))
			pts := in.gen(rng, 2500)
			tree := rtree.Build(fanout, len(pts), func(i int) geom.Point { return pts[i] })
			check := func(label string, q geom.Point, got, want []Result) {
				t.Helper()
				sameResults(t, in.name+" "+label, got, want)
				seen := map[int32]bool{}
				for _, r := range got {
					if seen[r.Ref] || r.Dist != q.Dist(pts[r.Ref]) {
						t.Fatalf("%s %s: item %d reported twice or at the wrong distance", in.name, label, r.Ref)
					}
					seen[r.Ref] = true
				}
			}
			for trial := 0; trial < 60; trial++ {
				// Lattice-snapped queries sit on a point, equidistant from its
				// four neighbours.
				q := geom.Pt(math.Floor(rng.Float64()*55)*20-50, math.Floor(rng.Float64()*55)*20-50)
				k := 1 + rng.Intn(24)
				full := BruteForce(tree, q, k+40)
				check("BestFirst", q, bestFirst(tree, q, k), full[:k])
				check("DepthFirst", q, depthFirst(tree, q, k), full[:k])

				// The bounds a client sends: everything up to its last certain
				// neighbour is known, the k-th distance caps the search.
				lower := full[rng.Intn(k)].Dist
				var beyond []Result
				for _, r := range full {
					if r.Dist > lower && len(beyond) < k {
						beyond = append(beyond, r)
					}
				}
				check("EINN lower", q, einn(tree, q, k, Bounds{Lower: lower, HasLower: true}), beyond)
				check("EINN upper", q, einn(tree, q, k, Bounds{Upper: full[k-1].Dist, HasUpper: true}), full[:k])
				if len(beyond) > 0 {
					b := Bounds{Lower: lower, HasLower: true, Upper: beyond[len(beyond)-1].Dist, HasUpper: true}
					check("EINN both", q, einn(tree, q, k, b), beyond)
				}
			}
		}
	}
}
