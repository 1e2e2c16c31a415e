package spatialnet

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/geom"
)

func TestParseSegmentsBasic(t *testing.T) {
	input := `
# a comment
0 0 100 0 rural

100 0 100 100 secondary
0 0 0 100 highway
`
	segs, err := ParseSegments(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 3 {
		t.Fatalf("parsed %d segments", len(segs))
	}
	if segs[0].Class != ClassRural || segs[1].Class != ClassSecondary || segs[2].Class != ClassHighway {
		t.Errorf("classes wrong: %v", segs)
	}
	if !segs[1].A.Eq(geom.Pt(100, 0)) || !segs[1].B.Eq(geom.Pt(100, 100)) {
		t.Errorf("coordinates wrong: %+v", segs[1])
	}
}

func TestParseSegmentsErrors(t *testing.T) {
	cases := []struct {
		name  string
		input string
	}{
		{"too few fields", "0 0 100 0"},
		{"too many fields", "0 0 100 0 rural extra"},
		{"bad coordinate", "zero 0 100 0 rural"},
		{"bad class", "0 0 100 0 freeway"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseSegments(strings.NewReader(tc.input)); err == nil {
				t.Error("malformed input accepted")
			}
		})
	}
}

func TestParseRoadClass(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want RoadClass
	}{
		{"highway", ClassHighway},
		{"SECONDARY", ClassSecondary},
		{"Rural", ClassRural},
	} {
		got, err := ParseRoadClass(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseRoadClass(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseRoadClass("dirt"); err == nil {
		t.Error("unknown class accepted")
	}
}

// Write -> Parse -> FromSegments must reproduce the generated network: the
// cmd/roadgen output format is a faithful serialization.
func TestSegmentsRoundTrip(t *testing.T) {
	g, err := GenerateGrid(GridConfig{
		Width: 1000, Height: 1000, Spacing: 100,
		SecondaryEvery: 3, HighwayEvery: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Serialize the graph's edges as segments.
	var segs []Segment
	for _, e := range g.Edges() {
		segs = append(segs, Segment{A: g.Loc(e.From), B: g.Loc(e.To), Class: e.Class})
	}
	var buf bytes.Buffer
	if err := WriteSegments(&buf, segs); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseSegments(&buf)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := FromSegments(parsed)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Errorf("round trip changed topology: %d/%d nodes, %d/%d edges",
			g.NumNodes(), g2.NumNodes(), g.NumEdges(), g2.NumEdges())
	}
	// Network distances must be preserved (sampled).
	rng := newTestRand(17)
	for i := 0; i < 20; i++ {
		p := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		d1, ok1 := NewPathFinder(g).NetworkDistance(p, q)
		d2, ok2 := NewPathFinder(g2).NetworkDistance(p, q)
		if ok1 != ok2 || (ok1 && (d1-d2 > 1e-3 || d2-d1 > 1e-3)) {
			t.Fatalf("distance changed after round trip: %v vs %v", d1, d2)
		}
	}
}
