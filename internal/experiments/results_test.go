package experiments

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// committedDocuments names every results/*.json document and the type its
// study returns. BENCH_baseline.json is cmd/benchjson's, not a study's.
var committedDocuments = map[string]func() Document{
	"fig9": func() Document { return new(Figure) }, "fig10": func() Document { return new(Figure) },
	"fig11": func() Document { return new(Figure) }, "fig12": func() Document { return new(Figure) },
	"fig13": func() Document { return new(Figure) }, "fig14": func() Document { return new(Figure) },
	"fig15": func() Document { return new(Figure) }, "fig16": func() Document { return new(Figure) },
	"fig17":     func() Document { return new(Fig17) },
	"free2mi":   func() Document { return new(FreeStudy) },
	"free30mi":  func() Document { return new(FreeStudy) },
	"uncertain": func() Document { return new(UncertainStudy) },
	"diskio":    func() Document { return new(DiskIOResult) },
}

// TestCommittedResultsRoundTrip holds every committed results pair to one
// value, without running a simulation: the .json decodes into its study's
// document type, re-encodes byte for byte through WriteJSON under the same
// name, and the decoded value's Text is the committed .txt up to the
// command's trailing note line. A renamed tag, a reordered field, a lost
// omitempty, a table layout that moved, or a .txt and .json written by
// different runs fail here. CI regenerates the 2×2 mi pairs, Figure 17 and
// the disk-I/O study; the 30×30 mi pairs only this test checks.
func TestCommittedResultsRoundTrip(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "results", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	dir := t.TempDir()
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		if name == "BENCH_baseline" {
			continue
		}
		newDoc, ok := committedDocuments[name]
		if !ok {
			t.Errorf("results/%s.json has no document type", name)
			continue
		}
		seen++
		committed, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		doc := newDoc()
		dec := json.NewDecoder(bytes.NewReader(committed))
		dec.DisallowUnknownFields()
		if err := dec.Decode(doc); err != nil {
			t.Errorf("%s.json: %v", name, err)
			continue
		}
		if doc.Name() != name {
			t.Errorf("%s.json decodes to a document named %q", name, doc.Name())
			continue
		}
		if err := WriteJSON(dir, doc); err != nil {
			t.Fatal(err)
		}
		rewritten, err := os.ReadFile(filepath.Join(dir, name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rewritten, committed) {
			t.Errorf("%s.json does not round-trip through %T:\n%s", name, doc, rewritten)
		}
		txt, err := os.ReadFile(filepath.Join("..", "..", "results", name+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		table := string(txt)
		if i := strings.LastIndex(table, "\nnote: "); i >= 0 {
			table = table[:i+1]
		}
		if got := doc.Text(); got != table {
			t.Errorf("%s.txt is not its document's text; the document renders:\n%s", name, got)
		}
	}
	if seen != len(committedDocuments) {
		t.Errorf("found %d of the %d committed documents", seen, len(committedDocuments))
	}
}

// A figure document's sub-figures are in Regions order whatever the sweep
// returns, every time: the documents are diffed byte for byte between
// sequential and parallel runs and against results/.
func TestSweepFigureKeepsRegionOrder(t *testing.T) {
	sweep := func(r Region, a Area, _ Options) (FigureResult, error) {
		return FigureResult{Figure: "9" + subfig(r), Region: r, Area: a, XLabel: "x"}, nil
	}
	dir := t.TempDir()
	for range 20 {
		f, err := SweepFigure(sweep, Area2mi, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteJSON(dir, f); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir, "fig9.json"))
		if err != nil {
			t.Fatal(err)
		}
		var doc Figure
		if err := json.Unmarshal(b, &doc); err != nil {
			t.Fatal(err)
		}
		for i, r := range doc.Regions {
			if want := "9" + subfig(Regions[i]); r.Figure != want || r.Region != Regions[i] {
				t.Fatalf("sub-figure %d written is %s (%v), want %s (%v)", i, r.Figure, r.Region, want, Regions[i])
			}
		}
	}
}

// A ratio nothing measured is written as null and read back as NaN; a
// measured one keeps encoding/json's float bytes.
func TestRatioNullIsNaN(t *testing.T) {
	b, err := json.Marshal([]Ratio{Ratio(math.NaN()), 0.25, 1})
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "[null,0.25,1]" {
		t.Fatalf("encoded %s", b)
	}
	var back []Ratio
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 3 || !math.IsNaN(float64(back[0])) || back[1] != 0.25 || back[2] != 1 {
		t.Fatalf("decoded %v", back)
	}
}
