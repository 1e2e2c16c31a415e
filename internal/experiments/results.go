package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Document is what one pair of results files holds: the value a study
// returns (Figure, Fig17, FreeStudy, UncertainStudy, DiskIOResult) is the
// document. Its JSON tags are the schema of results/<Name>.json, and Text
// is the table cmd/experiments prints, which results/<Name>.txt records
// (followed, for duration-scaled runs, by the command's note line).
// Documents are structs only (no maps), so key order is fixed by field
// order and regenerated files are byte-diffable: CI's determinism job
// compares sequential against parallel runs and regenerated files against
// results/, and TestCommittedResultsRoundTrip holds every
// committed pair to one decoded value.
type Document interface {
	Name() string
	Text() string
}

// WriteJSON writes d to dir/<d.Name()>.json, indented with a trailing
// newline, creating dir if needed.
func WriteJSON(dir string, d Document) error {
	path := filepath.Join(dir, d.Name()+".json")
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return fmt.Errorf("experiments: marshal %s: %w", path, err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
