package senn

// bench_test.go regenerates every table and figure of the paper's evaluation
// as testing.B benchmarks. Each benchmark runs the corresponding experiment
// at a reduced duration scale (the shapes are stable well below the paper's
// 1 h / 5 h runs) and reports the headline quantities via b.ReportMetric, so
//
//	go test -bench . -benchmem
//
// prints both the runtime cost and the reproduced measurements. The
// cmd/experiments binary runs the same sweeps at arbitrary scale for the
// full three-region tables recorded in EXPERIMENTS.md.

import (
	"runtime"
	"testing"

	"repro/internal/experiments"
	"repro/internal/sim"
)

// benchOpts2mi runs the 2×2 mi experiments at 1/6 of the paper duration
// (10 simulated minutes), enough for the caches to reach steady state.
var benchOpts2mi = experiments.Options{DurationScale: 6}

// benchOpts30mi runs the 30×30 mi experiments at the 120 s duration floor
// with the full host population (faithful densities).
var benchOpts30mi = experiments.Options{DurationScale: 150}

// reportShares attaches the last sweep point's resolution shares to the
// benchmark output.
func reportShares(b *testing.B, fr experiments.FigureResult) {
	b.Helper()
	if len(fr.Points) == 0 {
		b.Fatal("empty sweep")
	}
	last := fr.Points[len(fr.Points)-1]
	b.ReportMetric(last.ShareSingle, "single%")
	b.ReportMetric(last.ShareMulti, "multi%")
	b.ReportMetric(last.ShareServer, "server%")
}

func benchSweep(b *testing.B, area experiments.Area,
	fn func(experiments.Region, experiments.Area, experiments.Options) (experiments.FigureResult, error)) {
	opts := benchOpts2mi
	if area == experiments.Area30mi {
		opts = benchOpts30mi
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fr, err := fn(experiments.LosAngeles, area, opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportShares(b, fr)
		}
	}
}

// BenchmarkFig09TransmissionRange2mi regenerates Figure 9a: query resolution
// shares as the wireless range sweeps 20–200 m over the 2×2 mi LA set.
func BenchmarkFig09TransmissionRange2mi(b *testing.B) {
	benchSweep(b, experiments.Area2mi, experiments.TransmissionRangeSweep)
}

// BenchmarkFig10TransmissionRange30mi regenerates Figure 10a on the 30×30 mi
// LA set with its full 121,500-host population.
func BenchmarkFig10TransmissionRange30mi(b *testing.B) {
	benchSweep(b, experiments.Area30mi, experiments.TransmissionRangeSweep)
}

// BenchmarkFig11CacheCapacity2mi regenerates Figure 11a: cache capacity 1–9.
func BenchmarkFig11CacheCapacity2mi(b *testing.B) {
	benchSweep(b, experiments.Area2mi, experiments.CacheCapacitySweep)
}

// BenchmarkFig12CacheCapacity30mi regenerates Figure 12a: capacity 4–20.
func BenchmarkFig12CacheCapacity30mi(b *testing.B) {
	benchSweep(b, experiments.Area30mi, experiments.CacheCapacitySweep)
}

// BenchmarkFig13Velocity2mi regenerates Figure 13a: host speed 10–50 mph.
func BenchmarkFig13Velocity2mi(b *testing.B) {
	benchSweep(b, experiments.Area2mi, experiments.VelocitySweep)
}

// BenchmarkFig14Velocity30mi regenerates Figure 14a on the large region.
func BenchmarkFig14Velocity30mi(b *testing.B) {
	benchSweep(b, experiments.Area30mi, experiments.VelocitySweep)
}

// BenchmarkFig15K2mi regenerates Figure 15a: requested k 1–9.
func BenchmarkFig15K2mi(b *testing.B) {
	benchSweep(b, experiments.Area2mi, experiments.KSweep)
}

// BenchmarkFig16K30mi regenerates Figure 16a: requested k 3–15.
func BenchmarkFig16K30mi(b *testing.B) {
	benchSweep(b, experiments.Area30mi, experiments.KSweep)
}

// BenchmarkFreeMovementComparison regenerates the §4.3 comparison: road
// network vs free movement server share on the 2×2 mi LA set.
func BenchmarkFreeMovementComparison(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		row, err := experiments.FreeMovementComparison(
			experiments.LosAngeles, experiments.Area2mi, benchOpts2mi)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(row.RoadSQRR, "roadSQRR%")
			b.ReportMetric(row.FreeSQRR, "freeSQRR%")
			b.ReportMetric(row.Delta, "delta%")
		}
	}
}

// BenchmarkFig17EINNvsINN regenerates Figure 17: R*-tree page accesses of
// EINN vs INN on the 30×30 mi LA POI set.
func BenchmarkFig17EINNvsINN(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fr, err := experiments.EINNvsINN(
			experiments.LosAngeles, experiments.Area30mi, 150, experiments.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 && len(fr.Points) > 0 {
			first := fr.Points[0]
			last := fr.Points[len(fr.Points)-1]
			b.ReportMetric(first.Reduction, "saveAtK4%")
			b.ReportMetric(last.Reduction, "saveAtK14%")
			b.ReportMetric(last.INNPages, "INNpages")
			b.ReportMetric(last.EINNPages, "EINNpages")
		}
	}
}

// BenchmarkTable1HeapOperations measures the result heap H (Table 1): the
// cost of the insert/evict/upgrade discipline under a candidate stream.
func BenchmarkTable1HeapOperations(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := NewResultHeap(8)
		for j := 0; j < 64; j++ {
			h.Add(Candidate{
				POI:     POI{ID: int64(j % 32), Loc: Pt(float64(j), 0)},
				Dist:    float64((j * 37) % 100),
				Certain: j%3 == 0,
			})
		}
	}
}

// benchWorld builds and runs a short simulation from a Table 3/4 parameter
// set, reporting its steady-state SQRR.
func benchWorld(b *testing.B, r experiments.Region, a experiments.Area, scale float64) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := experiments.ScaleDuration(experiments.BaseConfig(r, a), scale)
		w, err := sim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		m := w.Run()
		if i == b.N-1 {
			b.ReportMetric(m.SQRR(), "SQRR%")
			b.ReportMetric(float64(m.TotalQueries), "queries")
		}
	}
}

// BenchmarkTable3LosAngeles2mi runs the Table 3 LA configuration end to end.
func BenchmarkTable3LosAngeles2mi(b *testing.B) {
	benchWorld(b, experiments.LosAngeles, experiments.Area2mi, 6)
}

// BenchmarkTable3Riverside2mi runs the Table 3 Riverside configuration.
func BenchmarkTable3Riverside2mi(b *testing.B) {
	benchWorld(b, experiments.Riverside, experiments.Area2mi, 6)
}

// BenchmarkTable3Suburbia2mi runs the Table 3 Synthetic Suburbia set.
func BenchmarkTable3Suburbia2mi(b *testing.B) {
	benchWorld(b, experiments.Suburbia, experiments.Area2mi, 6)
}

// BenchmarkTable4LosAngeles30mi runs the Table 4 LA configuration (121,500
// hosts) for the 120 s duration floor.
func BenchmarkTable4LosAngeles30mi(b *testing.B) {
	benchWorld(b, experiments.LosAngeles, experiments.Area30mi, 150)
}

// BenchmarkTable4Riverside30mi runs the Table 4 Riverside configuration.
func BenchmarkTable4Riverside30mi(b *testing.B) {
	benchWorld(b, experiments.Riverside, experiments.Area30mi, 150)
}

// BenchmarkTable4Suburbia30mi runs the Table 4 Synthetic Suburbia set.
func BenchmarkTable4Suburbia30mi(b *testing.B) {
	benchWorld(b, experiments.Suburbia, experiments.Area30mi, 150)
}

// BenchmarkSENNQuery measures one sharing-based query end to end (peer
// verification plus server fallback) outside the simulator loop.
func BenchmarkSENNQuery(b *testing.B) {
	cfg := experiments.BaseConfig(experiments.LosAngeles, experiments.Area2mi)
	pois := make([]POI, 0, cfg.NumPOIs)
	db := func() *Database {
		rngPois := sim.RandomPOIs(cfg.NumPOIs, cfg.Bounds(), newRand(5))
		pois = append(pois, rngPois...)
		return NewDatabase(rngPois)
	}()
	rng := newRand(6)
	var peers []PeerCache
	for i := 0; i < 6; i++ {
		loc := Pt(rng.Float64()*cfg.AreaWidth, rng.Float64()*cfg.AreaHeight)
		peers = append(peers, NewPeerCache(loc, db.KNN(loc, cfg.CacheSize, Bounds{})))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := Pt(rng.Float64()*cfg.AreaWidth, rng.Float64()*cfg.AreaHeight)
		Query(q, 3, peers, db, QueryOptions{})
	}
}

// figureSuite runs a representative slice of the figure suite — one full
// three-region sweep (Figure 9a–c) plus the §4.3 comparison — with the given
// worker count. Results are bit-identical for any worker count
// (TestParallelMatchesSequentialSweep); only wall-clock time changes.
func figureSuite(b *testing.B, workers int) {
	opts := benchOpts2mi
	opts.Workers = workers
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, r := range experiments.Regions {
			fr, err := experiments.TransmissionRangeSweep(r, experiments.Area2mi, opts)
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 && r == experiments.LosAngeles {
				reportShares(b, fr)
			}
		}
		if _, err := experiments.FreeMovementComparison(
			experiments.LosAngeles, experiments.Area2mi, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigureSuiteSequential is the one-core baseline of the sweep
// engine: every simulation of the suite slice runs on a single worker.
func BenchmarkFigureSuiteSequential(b *testing.B) { figureSuite(b, 1) }

// BenchmarkFigureSuiteParallel fans the same independent simulations across
// GOMAXPROCS workers. Compare against BenchmarkFigureSuiteSequential for the
// wall-clock speedup (≈ linear up to the 10-runs-per-sweep fan-out on
// multi-core hardware; identical on one core).
func BenchmarkFigureSuiteParallel(b *testing.B) {
	figureSuite(b, runtime.GOMAXPROCS(0))
}
