package experiments

import (
	"cmp"
	"math"
	"slices"

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
	Region Region
	Area   Area
	// UncertainShare is the % of queries answered uncertainly.
	UncertainShare float64
	// ServerShare is the remaining % that still reached the server.
	ServerShare float64
	// Precision over all uncertain answers, in [0,1].
	Precision float64
	// RankAccuracy over all uncertain answers, in [0,1].
	RankAccuracy float64
	// Queries audited.
	Queries int64
}

// UncertainQuality runs one simulation per region of the study area with
// AcceptUncertain enabled and audits every uncertain answer against
// brute-force ground truth. Results are returned in Regions order.
func UncertainQuality(a Area, opts Options) ([]UncertainQualityResult, error) {
	runs := make([]worldRun, len(Regions))
	for i, r := range Regions {
		runs[i] = worldRun{base: BaseConfig(r, a), mut: func(cfg *sim.Config) { cfg.AcceptUncertain = true }}
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
		return nil, err
	}
	out := make([]UncertainQualityResult, len(runs))
	for i, m := range ms {
		out[i] = UncertainQualityResult{
			Region:         Regions[i],
			Area:           a,
			UncertainShare: m.ShareUncertain(),
			ServerShare:    m.SQRR(),
			Precision:      math.NaN(),
			RankAccuracy:   math.NaN(),
			Queries:        m.TotalQueries,
		}
		if t := tallies[i]; t.returned > 0 {
			out[i].Precision = float64(t.hits) / float64(t.returned)
			out[i].RankAccuracy = float64(t.rankHits) / float64(t.returned)
		}
	}
	return out, nil
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
