package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// benchWorld is the Table 4 Los Angeles population (121,500 hosts over
// 30×30 mi) — the heaviest movement phase in the figure suite and the
// configuration whose step the baseline tracks. The world is built once and
// shared: advanceMovement mutates only host positions and the grid, so
// successive measurements stay representative.
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
// model + patch the host grid), which runs on the coordinating goroutine,
// and — under the queries/ sub-benchmarks — the query pipeline's
// resolve+commit phase on a query-heavy batch at several
// Config.QueryWorkers counts. Output is bit-identical across all counts
// (TestWorldQueryParallelDeterminism); the CI bench job gates the query
// qworkers=1 vs qworkers=8 ratio. workers=1 keeps the name the movement
// step had while it was sharded, so the baseline's series continues.
func BenchmarkWorldStep(b *testing.B) {
	b.Run("workers=1", func(b *testing.B) {
		w := benchStepWorld(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.advanceMovement(stepSeconds)
		}
	})
	// Million-host movement step on the coordinating goroutine (advance the
	// 10% that move, patch the grid from their delta).
	b.Run("hosts=1M", func(b *testing.B) {
		w := bigStepWorld(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.advanceMovement(stepSeconds)
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
			d.g.applyDelta(d.after, d.fwd)
			d.g.applyDelta(d.before, d.rev)
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

// BenchmarkWorldNew measures New, a world's cold start, at one and two
// workers. free is the sim-query workload's world: Table 4 Los Angeles,
// 121,500 hosts on 30×30 mi, 80 % moving in free movement. road is Table 4
// density in road mode on 12×12 mi (19,440 hosts, the same 500 m road
// spacing and 2.5 km trip radius as the full area), so one op stays well
// under half a second; per mover it is the full world's work, a math/rand
// generator seeded and a first route planned. move is the sim-move
// workload's world: a million hosts at 10 % duty, where the stream's draws
// and the grid's counting sort are most of the work. Every world is the
// same bit for bit at every worker count (TestNewMatchesReference); the CI
// bench job gates the workers=1 / workers=2 ratios.
func BenchmarkWorldNew(b *testing.B) {
	const mile = 1609.344
	worlds := []struct {
		name string
		cfg  Config
	}{
		{"free", Config{
			AreaWidth: 30 * mile, AreaHeight: 30 * mile,
			NumPOIs: 4050, NumHosts: 121500, CacheSize: 20,
			MovePercentage: 0.80, Velocity: 13.4112, MaxPause: 30,
			QueriesPerMinute: 162000, TxRange: 200, KMin: 3, KMax: 7,
			Duration: 150, Mode: ModeFreeMovement, Seed: 1,
		}},
		{"road", Config{
			AreaWidth: 12 * mile, AreaHeight: 12 * mile,
			NumPOIs: 648, NumHosts: 19440, CacheSize: 20,
			MovePercentage: 0.80, Velocity: 13.4112, MaxPause: 30,
			QueriesPerMinute: 8100, TxRange: 200, KMin: 3, KMax: 7,
			Duration: 150, Mode: ModeRoadNetwork, Seed: 1,
		}},
		{"move", Config{
			AreaWidth: 138470, AreaHeight: 138470,
			NumPOIs: 4050, NumHosts: 1_000_000, CacheSize: 20,
			MovePercentage: 0.10, Velocity: 13.4112, MaxPause: 30,
			QueriesPerMinute: 8100, TxRange: 200, KMin: 3, KMax: 7,
			Duration: 300, Mode: ModeFreeMovement, Seed: 1,
		}},
	}
	for _, world := range worlds {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", world.name, workers), func(b *testing.B) {
				cfg := world.cfg
				cfg.Workers = workers
				for i := 0; i < b.N; i++ {
					// Each op starts from a collected heap, as a benchmark
					// repetition does: the previous world is garbage.
					b.StopTimer()
					runtime.GC()
					b.StartTimer()
					if _, err := New(cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// bigWorld caches the million-host benchmark world: free movement at the
// Table 4 Los Angeles host density, the area scaled by sqrt(1e6/121500) so
// hosts-per-cell stays the paper's, with a 10% movement duty cycle. The duty
// cycle is the point of the grid=1M comparison: a counting rebuild pays for
// all million hosts every step no matter how few moved, while applyDelta
// pays for the moved-host delta. (At Table 4 Los Angeles with 80% moving,
// 4.8% of hosts change cell per step on the road network and 6% in free
// movement; there the rebuild's linear passes are the faster grid update,
// 0.80-0.86 ms against 1.5-1.7 ms, while on this world the delta wins,
// 1.8-2.4 ms against 12.3 ms. DESIGN.md §8 gives the crossover.) Building a
// world this size takes seconds; the movement phase is what the benchmarks
// time.
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
			Seed:     1,
		}
		w, err := New(cfg)
		if err == nil {
			// Warm the world before it is ever timed: the first steps fault
			// in the grid-delta scratch and the movers buffer (tens of ms
			// of one-off cost). CI runs -benchtime 1x, where a
			// single cold step would be the entire sample.
			for i := 0; i < 5; i++ {
				w.advanceMovement(stepSeconds)
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
		w.advanceMovement(stepSeconds)
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
		d.g.applyDelta(d.after, d.fwd)
		d.g.applyDelta(d.before, d.rev)
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
