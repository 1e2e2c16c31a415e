package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"
)

// TestCommittedResultsRoundTrip pins the persisted schema against the
// committed documents: each figure and study file in results/ decodes
// through the type cmd/experiments writes it with and re-encodes byte for
// byte. A renamed tag, a reordered field or a lost omitempty fails here
// without running a simulation — most of these files are regenerated by no
// CI step.
func TestCommittedResultsRoundTrip(t *testing.T) {
	type doc struct {
		name string
		v    any
	}
	docs := []doc{
		{"fig17.json", new(Fig17JSON)},
		{"free.json", new(FreeComparisonJSON)},
		{"uncertain.json", new(UncertainJSON)},
		{"diskio.json", new(DiskIOJSON)},
	}
	for fig := 9; fig <= 16; fig++ {
		docs = append(docs, doc{"fig" + strconv.Itoa(fig) + ".json", new(FigureJSON)})
	}
	dir := t.TempDir()
	for _, d := range docs {
		name, v := d.name, d.v
		committed, err := os.ReadFile(filepath.Join("..", "..", "results", name))
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(committed))
		dec.DisallowUnknownFields()
		if err := dec.Decode(v); err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		out := filepath.Join(dir, name)
		switch v := v.(type) { // the writers cmd/experiments calls
		case *FreeComparisonJSON:
			err = WriteFreeJSON(dir, v.Rows)
		case *FigureJSON:
			err = WriteFigureJSON(dir, figureResults(t, v))
		default:
			err = writeJSON(out, v)
		}
		if err != nil {
			t.Fatal(err)
		}
		rewritten, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rewritten, committed) {
			t.Errorf("%s does not round-trip through %T:\n%s", name, v, rewritten)
		}
	}
}

// figureResults turns a committed figure document back into the sub-figures
// WriteFigureJSON is handed, in the document's order.
func figureResults(t *testing.T, doc *FigureJSON) []FigureResult {
	t.Helper()
	area := Area2mi
	if doc.Area == Area30mi.String() {
		area = Area30mi
	}
	var frs []FigureResult
	for _, r := range doc.Regions {
		i := slices.IndexFunc(Regions, func(reg Region) bool { return reg.String() == r.Region })
		if i < 0 {
			t.Fatalf("fig%s: unknown region %q", doc.Figure, r.Region)
		}
		frs = append(frs, FigureResult{Figure: r.Subfigure, Region: Regions[i], Area: area, XLabel: doc.XLabel, Points: r.Points})
	}
	return frs
}

// WriteFigureJSON keeps the sub-figures in the order it is handed them, the
// order the runners produce: the documents are diffed byte for byte between
// sequential and parallel runs and against results/.
func TestWriteFigureJSONKeepsSubfigureOrder(t *testing.T) {
	var frs []FigureResult
	for i := range 26 {
		frs = append(frs, FigureResult{Figure: "9" + string(rune('a'+i)), Region: Regions[i%len(Regions)], XLabel: "x"})
	}
	dir := t.TempDir()
	for range 3 {
		if err := WriteFigureJSON(dir, frs); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir, "fig9.json"))
		if err != nil {
			t.Fatal(err)
		}
		var doc FigureJSON
		if err := json.Unmarshal(b, &doc); err != nil {
			t.Fatal(err)
		}
		for i, r := range doc.Regions {
			if r.Subfigure != frs[i].Figure {
				t.Fatalf("sub-figure %d written is %s, want %s", i, r.Subfigure, frs[i].Figure)
			}
		}
	}
}
