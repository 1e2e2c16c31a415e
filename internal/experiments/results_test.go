package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
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
		if free, ok := v.(*FreeComparisonJSON); ok {
			err = WriteFreeJSON(dir, free.Rows) // the writer cmd/experiments calls
		} else {
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
