package spatialnet

import (
	"fmt"
	"math/rand"

	"repro/internal/geom"
)

// GridConfig parameterizes the synthetic TIGER/LINE-style road network
// generator (DESIGN.md substitution D2). The generator lays out a grid of
// rural roads with the given spacing; every SecondaryEvery-th grid line is
// promoted to a secondary road and every HighwayEvery-th to a primary
// highway. Highways pass over rural roads (no junction — the over-pass case
// of §4.1.2) and interchange with secondary roads and other highways.
type GridConfig struct {
	// Width and Height of the covered area in meters.
	Width, Height float64
	// Spacing between adjacent grid lines in meters.
	Spacing float64
	// SecondaryEvery promotes every n-th line to a secondary road
	// (0 disables secondary roads).
	SecondaryEvery int
	// HighwayEvery promotes every n-th line to a highway (0 disables
	// highways). Highway promotion wins over secondary promotion.
	HighwayEvery int
}

// classify returns the road class of grid line index i out of n lines.
// Boundary lines are never promoted to highways: a highway terminating on
// the border road would otherwise share an endpoint with rural segments,
// violating the over-pass separation.
func (cfg GridConfig) classify(i, n int) RoadClass {
	interior := i > 0 && i < n-1
	if cfg.HighwayEvery > 0 && i%cfg.HighwayEvery == 0 && interior {
		return ClassHighway
	}
	if cfg.SecondaryEvery > 0 && i%cfg.SecondaryEvery == 0 && i > 0 {
		return ClassSecondary
	}
	return ClassRural
}

// GenerateGrid builds the synthetic road network described by cfg. The
// resulting graph is connected (highways interchange with the secondary
// grid) and every edge length equals the Euclidean distance between its
// endpoints, so the Euclidean lower-bound property holds with equality on
// individual edges.
func GenerateGrid(cfg GridConfig) (*Graph, error) {
	if cfg.Width <= 0 || cfg.Height <= 0 || cfg.Spacing <= 0 {
		return nil, fmt.Errorf("spatialnet: grid config requires positive dimensions and spacing")
	}
	nx := int(cfg.Width/cfg.Spacing) + 1
	ny := int(cfg.Height/cfg.Spacing) + 1
	if nx < 2 || ny < 2 {
		return nil, fmt.Errorf("spatialnet: spacing %v too large for %vx%v area",
			cfg.Spacing, cfg.Width, cfg.Height)
	}
	xs := make([]float64, nx)
	for i := range xs {
		xs[i] = float64(i) * cfg.Spacing
	}
	ys := make([]float64, ny)
	for i := range ys {
		ys[i] = float64(i) * cfg.Spacing
	}

	var segs []Segment
	// Horizontal lines: one polyline per y, broken at every x that connects.
	for yi, y := range ys {
		class := cfg.classify(yi, ny)
		prev := 0
		for xi := 1; xi < nx; xi++ {
			// Break at crossing vertical lines whose class connects with
			// ours, and always at the final column.
			if xi == nx-1 || Connects(class, cfg.classify(xi, nx)) {
				segs = append(segs, Segment{
					A:     geom.Pt(xs[prev], y),
					B:     geom.Pt(xs[xi], y),
					Class: class,
				})
				prev = xi
			}
		}
	}
	// Vertical lines.
	for xi, x := range xs {
		class := cfg.classify(xi, nx)
		prev := 0
		for yi := 1; yi < ny; yi++ {
			if yi == ny-1 || Connects(class, cfg.classify(yi, ny)) {
				segs = append(segs, Segment{
					A:     geom.Pt(x, ys[prev]),
					B:     geom.Pt(x, ys[yi]),
					Class: class,
				})
				prev = yi
			}
		}
	}
	return FromSegments(segs)
}

// RandomOnNetworkPOIs places n POIs at uniformly random positions along
// random edges of the network, modeling roadside objects.
func RandomOnNetworkPOIs(g *Graph, n int, rng *rand.Rand) []geom.Point {
	edges := g.Edges()
	out := make([]geom.Point, n)
	for i := range out {
		e := edges[rng.Intn(len(edges))]
		t := rng.Float64()
		out[i] = g.Loc(e.From).Lerp(g.Loc(e.To), t)
	}
	return out
}
