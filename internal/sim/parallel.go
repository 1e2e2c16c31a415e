package sim

import (
	"sync"

	"repro/internal/geom"
	"repro/internal/spatialnet"
)

// stepEngine shards the per-step movement phase of World.Run across
// Config.Workers goroutines. Query planning stays on the coordinating
// goroutine between steps, so the Poisson event stream is untouched; the
// query batch itself resolves through the queryEngine (queryengine.go).
//
// Determinism: each host's trajectory depends only on its own movement state
// (every mover owns a private RNG), so advancing hosts concurrently cannot
// change where anyone ends up. Grid maintenance consumes the per-shard
// cell-crossing deltas concatenated in shard order — ascending host index
// for ANY shard layout, since shards are contiguous ranges of the ascending
// moving-host list — so hostGrid.applyDelta sees the identical mover
// sequence whatever the worker count, and neighborhood enumeration (and
// with it the peer list every query gathers) is bit-identical.
type stepEngine struct {
	world    *World
	workers  int
	shards   [][2]int     // per-worker [lo,hi) ranges over the moving-host list
	movers   []moverRec   // per-step delta, concatenated in shard order
	moverBuf [][]moverRec // per-shard crossing records
}

// splitRange cuts [0,n) into k near-equal contiguous pieces (fewer when
// n < k; never empty).
func splitRange(n, k int) [][2]int {
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	out := make([][2]int, 0, k)
	lo := 0
	for s := 0; s < k; s++ {
		hi := lo + (n-lo)/(k-s)
		out = append(out, [2]int{lo, hi})
		lo = hi
	}
	return out
}

func newStepEngine(w *World, workers int) *stepEngine {
	e := &stepEngine{
		world:   w,
		workers: workers,
		shards:  splitRange(len(w.moving), workers),
	}
	e.moverBuf = make([][]moverRec, len(e.shards))
	return e
}

// runWorkers runs fn(s) for s in [0,n) concurrently and waits; one worker
// runs inline on the caller's goroutine. It is the fan-out primitive shared
// by the movement stepEngine and the query engine's resolve phase; callers
// guarantee the fn invocations touch disjoint state.
func runWorkers(n int, fn func(s int)) {
	if n == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(n)
	for s := 0; s < n; s++ {
		go func(s int) {
			defer wg.Done()
			fn(s)
		}(s)
	}
	wg.Wait()
}

// step advances every moving host by dt and patches the host grid from the
// cell-crossing delta.
func (e *stepEngine) step(dt float64) {
	w := e.world
	g := w.grid

	// Phase A — advance each shard of the moving list, recording every
	// cell crossing. Stationary hosts are never visited.
	runWorkers(len(e.shards), func(s int) {
		e.moverBuf[s] = w.advanceRange(e.shards[s][0], e.shards[s][1], dt, e.moverBuf[s][:0])
	})

	// Concatenate the shard deltas in shard order: contiguous shards of the
	// ascending moving list keep the movers in ascending host order, which
	// applyDelta requires.
	e.movers = e.movers[:0]
	for s := range e.moverBuf {
		e.movers = append(e.movers, e.moverBuf[s]...)
	}
	g.applyDelta(w.cells, e.movers, e.workers)
}

// initEngine arms the movement engine for the given worker count: one
// shard per worker, at least one, at most one per mover. In road mode every
// shard needs a private route planner: a PathFinder is scratch state that
// is not safe for concurrent use, but the paths it returns are a pure
// function of the graph, so trajectories do not depend on which finder a
// host holds. New's placers each planned with their own, whichever chunks
// they took; here the movers are handed out again by shard, keeping the
// finders the placers made.
func (w *World) initEngine(workers int) {
	w.engine = newStepEngine(w, max(1, min(workers, len(w.moving))))
	if w.roads == nil {
		return
	}
	finders := make([]*spatialnet.PathFinder, len(w.engine.shards))
	for s := range finders {
		if s < len(w.finders) && w.finders[s] != nil {
			finders[s] = w.finders[s]
		} else {
			finders[s] = spatialnet.NewPathFinder(w.roads)
		}
	}
	w.finders = finders
	for s, sh := range w.engine.shards {
		for j := sh[0]; j < sh[1]; j++ {
			w.road[j].SetFinder(w.finders[s])
		}
	}
}

// advanceMovement runs one movement step: every moving host's trajectory,
// then deterministic grid maintenance.
func (w *World) advanceMovement(dt float64) {
	w.engine.step(dt)
}

// advanceRange advances movers lo..hi-1 of the moving list by dt — slot j
// of the mode's movement state drives host moving[j] — and appends a
// moverRec to buf for every host whose grid cell changed. Disjoint ranges
// touch disjoint state, so shards may run it concurrently.
func (w *World) advanceRange(lo, hi int, dt float64, buf []moverRec) []moverRec {
	g := w.grid
	for j := lo; j < hi; j++ {
		i := w.moving[j]
		var p geom.Point
		if w.wp != nil {
			p = w.wp.Advance(j, w.pos[i], dt)
		} else {
			p = w.road[j].Advance(dt)
		}
		w.pos[i] = p
		if c := g.CellIndex(p); c != w.cells[i] {
			buf = append(buf, moverRec{host: i, from: w.cells[i], to: c})
			w.cells[i] = c
		}
	}
	return buf
}
