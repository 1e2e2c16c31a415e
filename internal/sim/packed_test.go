package sim

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/nn"
	"repro/internal/rtree"
	"repro/internal/rtree/rtreetest"
)

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
		// The inserted tree is the one the paper's server presumably used: one
		// R* insertion per POI, in POI order.
		packed := NewServerModule(tc.pois, 30).Tree()
		inserted := rtreetest.Insert(30, len(tc.pois), func(i int) geom.Point { return tc.pois[i].Loc })
		rng := rand.New(rand.NewSource(2))
		var itPacked nn.Iterator[rtree.Node]
		var itInserted nn.Iterator[*rtreetest.Node]
		var pagesPacked, pagesInserted int64
		const queries = 2000
		for i := 0; i < queries; i++ {
			q := geom.Pt(tc.bounds.Min.X+rng.Float64()*tc.bounds.Width(), tc.bounds.Min.Y+rng.Float64()*tc.bounds.Height())
			itPacked.Reset(packed, q, nn.NoBounds)
			itInserted.Reset(inserted, q, nn.NoBounds)
			for n := 0; n < 16; n++ {
				itPacked.Next()
				itInserted.Next()
			}
			pagesPacked += itPacked.Pages()
			pagesInserted += itInserted.Pages()
		}
		t.Logf("%s: %.2f pages per 16-NN packed, %.2f inserted (%+.1f %%)", tc.name,
			float64(pagesPacked)/queries, float64(pagesInserted)/queries, 100*float64(pagesPacked-pagesInserted)/float64(pagesInserted))
		if pagesPacked > pagesInserted {
			t.Errorf("%s: the packed index reads %d pages over %d queries, the inserted one %d", tc.name, pagesPacked, queries, pagesInserted)
		}
	}
}
