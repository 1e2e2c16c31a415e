package experiments

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// committedDocuments names the type each study's document decodes into.
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

var resultsDir = filepath.Join("..", "..", "results")

// studyFileMismatches lists what keeps studies and the *.json documents in
// dir from naming each other one to one. BENCH_baseline.json is
// cmd/benchjson's, not a study's.
func studyFileMismatches(t *testing.T, studies []Study, dir string) []string {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]bool{}
	for _, path := range paths {
		if name := strings.TrimSuffix(filepath.Base(path), ".json"); name != "BENCH_baseline" {
			files[name] = true
		}
	}
	var bad []string
	seen := map[string]bool{}
	for _, s := range studies {
		switch {
		case seen[s.Name]:
			bad = append(bad, "two studies named "+s.Name)
		case !files[s.Name]:
			bad = append(bad, "study "+s.Name+" has no "+s.Name+".json")
		}
		seen[s.Name] = true
	}
	for name := range files {
		if !seen[name] {
			bad = append(bad, name+".json has no study")
		}
	}
	slices.Sort(bad)
	return bad
}

// Every committed results document is one study's, and every study has
// its committed document: -fig <name> regenerates results/<name>.
func TestStudiesAreTheResultsFiles(t *testing.T) {
	if bad := studyFileMismatches(t, Studies, resultsDir); len(bad) > 0 {
		t.Fatalf("studies and results/ disagree: %q", bad)
	}
	// The check itself: a renamed study, a second study of one name and a
	// stray document each fail it.
	renamed := slices.Clone(Studies)
	renamed[0].Name = "fig9b"
	twice := append(slices.Clone(Studies), Studies[0])
	stray := t.TempDir()
	for _, name := range []string{"x", "BENCH_baseline"} {
		if err := os.WriteFile(filepath.Join(stray, name+".json"), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range Studies {
		if err := os.WriteFile(filepath.Join(stray, s.Name+".json"), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		studies []Study
		dir     string
		want    []string
	}{
		{renamed, resultsDir, []string{"fig9.json has no study", "study fig9b has no fig9b.json"}},
		{twice, resultsDir, []string{"two studies named fig9"}},
		{Studies, stray, []string{"x.json has no study"}},
	} {
		if got := studyFileMismatches(t, c.studies, c.dir); !slices.Equal(got, c.want) {
			t.Errorf("mismatches %q, want %q", got, c.want)
		}
	}
}

// TestCommittedResultsRoundTrip holds every committed results pair to one
// value, without running a simulation: the .json decodes into its study's
// document type, re-encodes byte for byte through WriteJSON under the same
// name, and the .txt is the decoded value's Text followed by the study's
// Note at the committed scale (the 10× line on a 30×30 mi timed file,
// nothing on a 2×2 mi or untimed one). A renamed tag, a reordered field, a
// lost omitempty, a table layout that moved, an edited note, or a .txt and
// .json written by different runs fail here. CI regenerates the 2×2 mi
// pairs, Figure 17 and the disk-I/O study on every change and the 30×30 mi
// pairs nightly.
func TestCommittedResultsRoundTrip(t *testing.T) {
	if len(committedDocuments) != len(Studies) {
		t.Errorf("%d document types for %d studies", len(committedDocuments), len(Studies))
	}
	dir := t.TempDir()
	for _, s := range Studies {
		name := s.Name
		newDoc, ok := committedDocuments[name]
		if !ok {
			t.Errorf("study %s has no document type", name)
			continue
		}
		committed, err := os.ReadFile(filepath.Join(resultsDir, name+".json"))
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
		txt, err := os.ReadFile(filepath.Join(resultsDir, name+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if want := doc.Text() + s.Note(Options{}); string(txt) != want {
			t.Errorf("%s.txt is not its document's text and note; the study prints:\n%s", name, want)
		}
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
