package sim

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/nn"
	"repro/internal/rtree"
)

// insertedTree indexes the POIs the way the paper's server presumably did and
// this repository did until PR 21: one R* insertion per POI, in POI order.
// It is the reference the packed production index is measured against.
func insertedTree(pois []core.POI, fanout int) *rtree.Tree {
	t := rtree.New(fanout)
	for i, p := range pois {
		t.InsertPoint(p.Loc, int32(i))
	}
	return t
}

// The reason NewServerModule packs the index instead of inserting it: a
// 16-NN query reads fewer pages. Held on the daemon's two store shapes and
// on a Table-4-sized clustered set, for queries from anywhere on the map;
// the margins when this was written were 20 %, 19 % and 4 %.
func TestPackedPagesNoWorseThanInserted(t *testing.T) {
	city := geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(20000, 20000)}
	county := geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(48280, 48280)}
	for _, tc := range []struct {
		name   string
		bounds geom.Rect
		pois   []core.POI
	}{
		{"uniform 50k", city, RandomPOIs(50000, city, rand.New(rand.NewSource(1)))},
		{"16-cluster 50k", city, ClusteredPOIs(50000, city, 16, 400, rand.New(rand.NewSource(1)))},
		{"clustered 4,050", county, ClusteredPOIs(4050, county, 4050/25, 48280.0/250, rand.New(rand.NewSource(1)))},
	} {
		packed, inserted := NewServerModule(tc.pois, 30).Tree(), insertedTree(tc.pois, 30)
		rng := rand.New(rand.NewSource(2))
		var it nn.Iterator[rtree.Node]
		var pagesPacked, pagesInserted int64
		const queries = 2000
		for i := 0; i < queries; i++ {
			q := geom.Pt(tc.bounds.Min.X+rng.Float64()*tc.bounds.Width(), tc.bounds.Min.Y+rng.Float64()*tc.bounds.Height())
			for _, tree := range []*rtree.Tree{packed, inserted} {
				it.Reset(tree, q, nn.NoBounds)
				for n := 0; n < 16; n++ {
					it.Next()
				}
				if tree == packed {
					pagesPacked += it.Pages()
				} else {
					pagesInserted += it.Pages()
				}
			}
		}
		t.Logf("%s: %.2f pages per 16-NN packed, %.2f inserted (%+.1f %%)", tc.name,
			float64(pagesPacked)/queries, float64(pagesInserted)/queries, 100*float64(pagesPacked-pagesInserted)/float64(pagesInserted))
		if pagesPacked > pagesInserted {
			t.Errorf("%s: the packed index reads %d pages over %d queries, the inserted one %d", tc.name, pagesPacked, queries, pagesInserted)
		}
	}
}
