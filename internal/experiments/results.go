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
// (followed by the study's Note).
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

// Study is one results document and the run that writes it: `experiments
// -fig <Name> -json out > out/<Name>.txt` writes results/<Name>.txt and
// .json byte for byte, with no other flag.
type Study struct {
	Name  string
	Timed bool // a duration-scaled simulation of Area, which Options.DurationScale shortens
	Area  Area
	Run   func(Options) (Document, error)
}

// Studies lists every committed results document, in the order -fig all
// runs them. Figure 17 and the disk-I/O study fix their query counts here.
var Studies = []Study{
	sweepStudy("fig9", TransmissionRangeSweep, Area2mi),
	sweepStudy("fig10", TransmissionRangeSweep, Area30mi),
	sweepStudy("fig11", CacheCapacitySweep, Area2mi),
	sweepStudy("fig12", CacheCapacitySweep, Area30mi),
	sweepStudy("fig13", VelocitySweep, Area2mi),
	sweepStudy("fig14", VelocitySweep, Area30mi),
	sweepStudy("fig15", KSweep, Area2mi),
	sweepStudy("fig16", KSweep, Area30mi),
	{Name: "fig17", Area: Area30mi, Run: func(o Options) (Document, error) { return document(Figure17(400, o)) }},
	freeStudy("free2mi", Area2mi),
	freeStudy("free30mi", Area30mi),
	{Name: "uncertain", Timed: true, Area: Area2mi, Run: func(o Options) (Document, error) {
		return document(UncertainQuality(Area2mi, o))
	}},
	{Name: "diskio", Area: Area30mi, Run: func(o Options) (Document, error) { return document(DiskIOStudy(LosAngeles, 300, o)) }},
}

func sweepStudy(name string, sweep func(Region, Area, Options) (FigureResult, error), a Area) Study {
	return Study{Name: name, Timed: true, Area: a, Run: func(o Options) (Document, error) { return document(SweepFigure(sweep, a, o)) }}
}

func freeStudy(name string, a Area) Study {
	return Study{Name: name, Timed: true, Area: a, Run: func(o Options) (Document, error) { return document(FreeMovementStudy(a, o)) }}
}

// document widens a study's result to the Document it is.
func document[D Document](d D, err error) (Document, error) { return d, err }

// Note is the line results/<Name>.txt ends with after the study's table:
// for a timed study run shorter than the paper's, what it was divided by;
// otherwise nothing.
func (s Study) Note(opts Options) string {
	if scale := s.Area.DurationScale(opts.DurationScale); s.Timed && scale > 1 {
		return fmt.Sprintf("note: durations scaled down %gx from the paper's; pass -scale 1 for full runs\n", scale)
	}
	return ""
}
