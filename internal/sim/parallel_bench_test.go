package sim

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// benchWorld is the Table 4 Los Angeles population (121,500 hosts over
// 30×30 mi) — the heaviest movement phase in the figure suite and the
// configuration the ISSUE's speedup target is stated against. The world is
// built once and shared: advanceMovement mutates only host positions and the
// grid, so successive measurements stay representative, and initEngine can
// re-shard the same population between sub-benchmarks.
var benchWorld = struct {
	once sync.Once
	w    *World
	err  error
}{}

func benchStepWorld(b *testing.B) *World {
	benchWorld.once.Do(func() {
		const mile = 1609.344
		cfg := Config{
			AreaWidth: 30 * mile, AreaHeight: 30 * mile,
			NumPOIs:          4050,
			NumHosts:         121500,
			CacheSize:        20,
			MovePercentage:   0.80,
			Velocity:         13.4112, // 30 mph
			QueriesPerMinute: 8100,
			TxRange:          200,
			KMin:             3, KMax: 7,
			Duration: 5 * 3600,
			Mode:     ModeRoadNetwork,
			MaxPause: 30,
			Seed:     1,
		}
		benchWorld.w, benchWorld.err = New(cfg)
	})
	if benchWorld.err != nil {
		b.Fatal(benchWorld.err)
	}
	return benchWorld.w
}

// BenchmarkWorldStep measures one movement step (advance every mobility
// model + rebuild the host grid) at several intra-world worker counts, and
// — under the queries/ sub-benchmarks — the query pipeline's
// resolve+commit phase on a query-heavy batch at several
// Config.QueryWorkers counts. Output is bit-identical across all counts
// (TestWorldParallelDeterminism, TestWorldQueryParallelDeterminism); the
// CI bench job gates both the movement workers=1 vs workers=8 ratio and
// the query qworkers=1 vs qworkers=8 ratio.
func BenchmarkWorldStep(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			w := benchStepWorld(b)
			w.initEngine(workers)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.advanceMovement(w.cfg.StepSeconds)
			}
		})
	}
	// Million-host movement step on the coordinating goroutine (advance the
	// 10% that move, patch the grid from their delta).
	b.Run("hosts=1M", func(b *testing.B) {
		w := bigStepWorld(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.advanceMovement(w.cfg.StepSeconds)
		}
	})
	// Grid maintenance alone on that world's one-step moved-host delta:
	// applyDelta versus the counting rebuild (grid.Index.Build) it replaced
	// in the step loop. One op applies the delta and then its inverse, so
	// the grid returns to its start state and both sides do equal work on
	// identical inputs. The CI bench job gates the ratio at >=2x.
	b.Run("grid=1M/delta", func(b *testing.B) {
		d := bigGridDelta(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.g.applyDelta(d.after, d.fwd, 1)
			d.g.applyDelta(d.before, d.rev, 1)
		}
	})
	b.Run("grid=1M/rebuild", func(b *testing.B) {
		d := bigGridDelta(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.g.Build(d.after)
			d.g.Build(d.before)
		}
	})
	for _, qworkers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("queries/qworkers=%d", qworkers), func(b *testing.B) {
			w := benchStepWorld(b)
			w.initQueryEngine(qworkers)
			plans := benchQueryBatch(w, 2048)
			// Warm the caches once outside the timer: the first batch on a
			// cold world is all server fallbacks, which would bias whichever
			// sub-benchmark runs first.
			w.qengine.plans = append(w.qengine.plans[:0], plans...)
			w.qengine.runBatch()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Advance the hosts (untimed) so the cached results go stale
				// the way a live run's do: without movement every query is an
				// own-cache hit and the batch measures nothing but commit
				// overhead.
				b.StopTimer()
				w.advanceMovement(60)
				b.StartTimer()
				w.qengine.plans = append(w.qengine.plans[:0], plans...)
				w.qengine.runBatch()
			}
		})
	}
}

// bigWorld caches the million-host benchmark world: free movement at the
// Table 4 Los Angeles host density, the area scaled by sqrt(1e6/121500) so
// hosts-per-cell stays the paper's, with a 10% movement duty cycle. The duty
// cycle is the point of the grid=1M comparison: a counting rebuild pays for
// all million hosts every step no matter how few moved, while applyDelta
// pays for the moved-host delta. (At Table 4's 80% moving x 30 mph roughly a
// tenth of the population crosses a cell boundary every second, nearly every
// cell is touched, and the rebuild's clean linear passes win; EXPERIMENTS.md
// documents that crossover.) Building a world this size takes seconds; the
// movement phase is what the benchmarks time.
var bigWorld = struct {
	once sync.Once
	w    *World
	err  error
}{}

func bigStepWorld(b *testing.B) *World {
	bigWorld.once.Do(func() {
		const side = 138470 // 30 mi * sqrt(1e6 / 121500), in meters
		cfg := Config{
			AreaWidth: side, AreaHeight: side,
			NumPOIs:          4050,
			NumHosts:         1_000_000,
			CacheSize:        20,
			MovePercentage:   0.10,
			Velocity:         13.4112, // 30 mph
			QueriesPerMinute: 8100,
			TxRange:          200,
			KMin:             3, KMax: 7,
			Duration: 5 * 3600,
			Mode:     ModeFreeMovement,
			MaxPause: 30,
			// The workers=1/8 sub-benchmarks above cover parallel scaling.
			Workers: 1,
			Seed:    1,
		}
		w, err := New(cfg)
		if err == nil {
			// Warm the world before it is ever timed: the first steps fault
			// in the grid-delta scratch and the movement engine's buffers
			// (tens of ms of one-off cost). CI runs -benchtime 1x, where a
			// single cold step would be the entire sample.
			for i := 0; i < 5; i++ {
				w.advanceMovement(w.cfg.StepSeconds)
			}
		}
		bigWorld.w, bigWorld.err = w, err
	})
	if bigWorld.err != nil {
		b.Fatal(bigWorld.err)
	}
	return bigWorld.w
}

// gridDelta is one real movement step of the million-host world captured as
// data: the cell assignment before and after, the moved-host delta between
// them in both directions, and a private grid indexed at before.
type gridDelta struct {
	g             *hostGrid
	before, after []int32
	fwd, rev      []moverRec
}

var bigDelta = struct {
	once sync.Once
	d    gridDelta
}{}

func bigGridDelta(b *testing.B) *gridDelta {
	w := bigStepWorld(b)
	bigDelta.once.Do(func() {
		d := &bigDelta.d
		d.before = append([]int32(nil), w.cells...)
		w.advanceMovement(w.cfg.StepSeconds)
		d.after = append([]int32(nil), w.cells...)
		for i, from := range d.before {
			if to := d.after[i]; to != from {
				d.fwd = append(d.fwd, moverRec{host: int32(i), from: from, to: to})
				d.rev = append(d.rev, moverRec{host: int32(i), from: to, to: from})
			}
		}
		d.g = newHostGrid(w.cfg.Bounds(), len(d.before), w.cfg.TxRange)
		d.g.Build(d.before)
		// Fault in the delta scratch outside any timed window (see above).
		d.g.applyDelta(d.after, d.fwd, 1)
		d.g.applyDelta(d.before, d.rev, 1)
	})
	return &bigDelta.d
}

// benchQueryBatch plans a fixed query-heavy batch — far larger than the
// Poisson stream would put into one step — from a private RNG, so the
// shared bench world's event clock and random stream stay untouched. The
// commit phase's cache writes persist across iterations exactly as a live
// run's would; resolution work is identical for every worker count because
// commits land in event order.
func benchQueryBatch(w *World, n int) []queryPlan {
	rng := rand.New(rand.NewSource(7))
	plans := make([]queryPlan, n)
	for i := range plans {
		plans[i] = queryPlan{
			at:   float64(i),
			host: int32(rng.Intn(len(w.pos))),
			k:    w.cfg.KMin + rng.Intn(w.cfg.KMax-w.cfg.KMin+1),
		}
	}
	return plans
}
