package experiments

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/sim"
)

// UncertainQualityResult quantifies the accuracy a system trades away when
// hosts accept full-but-uncertain heaps without contacting the server
// (Algorithm 1 line 15 — an option the paper describes but does not
// evaluate). Precision is the fraction of returned POIs that belong to the
// true kNN set; RankAccuracy the fraction returned in the exactly correct
// rank position.
type UncertainQualityResult struct {
	Region         Region  `json:"region"`
	Area           Area    `json:"area"`
	UncertainShare float64 `json:"uncertain_pct"` // % of queries answered uncertainly
	ServerShare    float64 `json:"server_pct"`    // the remaining % that still reached the server
	Precision      Ratio   `json:"precision"`     // over all uncertain answers, in [0,1]
	RankAccuracy   Ratio   `json:"rank_accuracy"` // over all uncertain answers, in [0,1]
	Queries        int64   `json:"queries"`       // queries audited
}

// Ratio is a fraction that is NaN when nothing was measured (no uncertain
// answer occurred); a document writes the NaN as null, which JSON has in
// place of NaN.
type Ratio float64

// MarshalJSON implements json.Marshaler.
func (r Ratio) MarshalJSON() ([]byte, error) {
	if math.IsNaN(float64(r)) {
		return []byte("null"), nil
	}
	return json.Marshal(float64(r))
}

// UnmarshalJSON implements json.Unmarshaler: null reads as NaN.
func (r *Ratio) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*r = Ratio(math.NaN())
		return nil
	}
	return json.Unmarshal(b, (*float64)(r))
}

// UncertainStudy is the uncertain-answer document (results/uncertain.txt
// and .json): a row per region, in Regions order.
type UncertainStudy struct {
	Study string                   `json:"study"`
	Rows  []UncertainQualityResult `json:"rows"`
}

// Name implements Document.
func (UncertainStudy) Name() string { return "uncertain" }

// Text implements Document.
func (d UncertainStudy) Text() string {
	var b strings.Builder
	b.WriteString("Uncertain-answer quality (AcceptUncertain on; extension study)\n")
	fmt.Fprintf(&b, "%-22s %12s %12s %12s %12s\n",
		"region", "uncertain %", "server %", "precision", "rank acc.")
	for _, r := range d.Rows {
		fmt.Fprintf(&b, "%-22s %12.1f %12.1f %12.2f %12.2f\n",
			r.Region, r.UncertainShare, r.ServerShare, r.Precision, r.RankAccuracy)
	}
	b.WriteString("\n")
	return b.String()
}

// UncertainQuality runs one simulation per region of the study area with
// AcceptUncertain enabled and audits every uncertain answer against
// brute-force ground truth.
func UncertainQuality(a Area, opts Options) (UncertainStudy, error) {
	runs := make([]worldRun, len(Regions))
	for i, r := range Regions {
		runs[i] = worldRun{region: r, area: a, mut: func(cfg *sim.Config) { cfg.AcceptUncertain = true }}
	}
	// Each world's audit runs on that world's commit path, in event order,
	// so every tally is written by one goroutine.
	tallies := make([]struct{ hits, rankHits, returned int64 }, len(runs))
	ms, err := runWorlds(runs, opts, func(i int, w *sim.World) {
		t, pois := &tallies[i], w.Server().POIs()
		w.SetAudit(func(q geom.Point, k int, answer []core.Candidate, src core.Source) {
			if src != core.SolvedUncertain {
				return
			}
			truth := kNearestIDs(q, pois, k)
			for pos, c := range answer {
				t.returned++
				if rank := slices.Index(truth, c.ID); rank >= 0 {
					t.hits++
					if rank == pos {
						t.rankHits++
					}
				}
			}
		})
	})
	if err != nil {
		return UncertainStudy{}, err
	}
	out := make([]UncertainQualityResult, len(runs))
	for i, m := range ms {
		out[i] = UncertainQualityResult{
			Region:         Regions[i],
			Area:           a,
			UncertainShare: m.ShareUncertain(),
			ServerShare:    m.SQRR(),
			Precision:      Ratio(math.NaN()),
			RankAccuracy:   Ratio(math.NaN()),
			Queries:        m.TotalQueries,
		}
		if t := tallies[i]; t.returned > 0 {
			out[i].Precision = Ratio(float64(t.hits) / float64(t.returned))
			out[i].RankAccuracy = Ratio(float64(t.rankHits) / float64(t.returned))
		}
	}
	return UncertainStudy{Study: "uncertain-answer-quality", Rows: out}, nil
}

// kNearestIDs returns the IDs of the k nearest POIs of q in rank order,
// equal distances by ascending ID — the total order of every other oracle.
func kNearestIDs(q geom.Point, pois []core.POI, k int) []int64 {
	byRank := slices.Clone(pois)
	slices.SortFunc(byRank, func(a, b core.POI) int {
		return cmp.Or(cmp.Compare(q.Dist2(a.Loc), q.Dist2(b.Loc)), cmp.Compare(a.ID, b.ID))
	})
	ids := make([]int64, min(k, len(byRank)))
	for i := range ids {
		ids[i] = byRank[i].ID
	}
	return ids
}
