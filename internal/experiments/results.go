package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// results.go persists experiment output as structured JSON next to the text
// tables in results/, one file per figure. Documents are built from structs
// only (no maps), so key order is fixed by field order and regenerated files
// are byte-diffable — the determinism CI job compares the JSON written by
// `cmd/experiments -parallel 1` against a run with every parallelism level
// enabled, and TestCommittedResultsRoundTrip decodes and re-encodes every
// committed document through these types.

// FigureRegionJSON is one sub-figure (one region's series).
type FigureRegionJSON struct {
	Subfigure string        `json:"subfigure"`
	Region    string        `json:"region"`
	Points    []SeriesPoint `json:"points"`
}

// FigureJSON groups the per-region sub-figures of one paper figure.
type FigureJSON struct {
	Figure  string             `json:"figure"`
	Area    string             `json:"area"`
	XLabel  string             `json:"x_label"`
	Regions []FigureRegionJSON `json:"regions"`
}

// WriteFigureJSON writes the sub-figures of one figure (usually the three
// regions) to dir/fig<N>.json.
func WriteFigureJSON(dir string, frs []FigureResult) error {
	if len(frs) == 0 {
		return fmt.Errorf("experiments: no sub-figures to persist")
	}
	num := strings.TrimRight(frs[0].Figure, "abc")
	doc := FigureJSON{
		Figure: num,
		Area:   frs[0].Area.String(),
		XLabel: frs[0].XLabel,
	}
	for _, fr := range frs {
		doc.Regions = append(doc.Regions, FigureRegionJSON{
			Subfigure: fr.Figure,
			Region:    fr.Region.String(),
			Points:    fr.Points,
		})
	}
	return writeJSON(filepath.Join(dir, "fig"+num+".json"), doc)
}

// Fig17RegionJSON is one region's EINN-vs-INN series.
type Fig17RegionJSON struct {
	Region string       `json:"region"`
	Points []Fig17Point `json:"points"`
}

// Fig17JSON is the machine-readable Figure 17 document.
type Fig17JSON struct {
	Figure  string            `json:"figure"`
	Regions []Fig17RegionJSON `json:"regions"`
}

// WriteFig17JSON writes the EINN-vs-INN comparison to dir/fig17.json.
func WriteFig17JSON(dir string, frs []Fig17Result) error {
	doc := Fig17JSON{Figure: "17"}
	for _, fr := range frs {
		doc.Regions = append(doc.Regions, Fig17RegionJSON{
			Region: fr.Region.String(),
			Points: fr.Points,
		})
	}
	return writeJSON(filepath.Join(dir, "fig17.json"), doc)
}

// FreeComparisonRow is one region×area row of the §4.3 comparison.
type FreeComparisonRow struct {
	Region   string  `json:"region"`
	Area     string  `json:"area"`
	RoadSQRR float64 `json:"road_sqrr_pct"`
	FreeSQRR float64 `json:"free_sqrr_pct"`
	Delta    float64 `json:"delta_pct"`
}

// FreeComparisonJSON is the machine-readable §4.3 document.
type FreeComparisonJSON struct {
	Study string              `json:"study"`
	Rows  []FreeComparisonRow `json:"rows"`
}

// WriteFreeJSON writes the free-movement comparison to dir/free.json.
func WriteFreeJSON(dir string, rows []FreeComparisonRow) error {
	return writeJSON(filepath.Join(dir, "free.json"),
		FreeComparisonJSON{Study: "free-movement-vs-road-network", Rows: rows})
}

// UncertainRowJSON is one region of the uncertain-answer quality study.
// Precision and RankAccuracy are null when no uncertain answer occurred
// (they are NaN in UncertainQualityResult, which JSON cannot encode).
type UncertainRowJSON struct {
	Region         string   `json:"region"`
	Area           string   `json:"area"`
	UncertainShare float64  `json:"uncertain_pct"`
	ServerShare    float64  `json:"server_pct"`
	Precision      *float64 `json:"precision"`
	RankAccuracy   *float64 `json:"rank_accuracy"`
	Queries        int64    `json:"queries"`
}

// UncertainJSON is the machine-readable uncertain-quality document.
type UncertainJSON struct {
	Study string             `json:"study"`
	Rows  []UncertainRowJSON `json:"rows"`
}

// WriteUncertainJSON writes the uncertain-quality study to
// dir/uncertain.json.
func WriteUncertainJSON(dir string, rs []UncertainQualityResult) error {
	doc := UncertainJSON{Study: "uncertain-answer-quality"}
	finite := func(v float64) *float64 {
		if math.IsNaN(v) {
			return nil
		}
		return &v
	}
	for _, r := range rs {
		doc.Rows = append(doc.Rows, UncertainRowJSON{
			Region:         r.Region.String(),
			Area:           r.Area.String(),
			UncertainShare: r.UncertainShare,
			ServerShare:    r.ServerShare,
			Precision:      finite(r.Precision),
			RankAccuracy:   finite(r.RankAccuracy),
			Queries:        r.Queries,
		})
	}
	return writeJSON(filepath.Join(dir, "uncertain.json"), doc)
}

// DiskIOJSON is the machine-readable disk-I/O spectrum document.
type DiskIOJSON struct {
	Study      string        `json:"study"`
	Region     string        `json:"region"`
	TotalPages int           `json:"total_pages"`
	K          int           `json:"k"`
	Points     []DiskIOPoint `json:"points"`
}

// WriteDiskIOJSON writes the §4.4 I/O spectrum study to dir/diskio.json.
func WriteDiskIOJSON(dir string, r DiskIOResult) error {
	return writeJSON(filepath.Join(dir, "diskio.json"), DiskIOJSON{
		Study:      "disk-io-spectrum",
		Region:     r.Region.String(),
		TotalPages: r.TotalPages,
		K:          r.K,
		Points:     r.Points,
	})
}

// writeJSON marshals v with stable formatting (indented, trailing newline)
// and writes it to path, creating the directory if needed.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("experiments: marshal %s: %w", path, err)
	}
	data = append(data, '\n')
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
