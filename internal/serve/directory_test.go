package serve

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/geom"
)

// newBareServer builds a Server skeleton with just the state the directory
// and the relay read — no HTTP, no store — so the oracle property tests can
// churn sessions directly.
func newBareServer(bounds geom.Rect, cell float64) *Server {
	return &Server{dir: newSessionDirectory(bounds, cell)}
}

// targetSet reduces a target slice to a comparable set. The directory
// enumerates cell-major and the linear sweep in map order, so equivalence
// is set equality — the relay's countdown is order-insensitive (pinned by
// TestRelayCountdownOrderInsensitive).
func targetSet(ts []*session) map[*session]bool {
	m := make(map[*session]bool, len(ts))
	for _, sess := range ts {
		m[sess] = true
	}
	return m
}

// The directory's target selection must be exactly the linear sweep's under
// randomized join/move/leave churn, for query points and radii inside, on,
// and far outside the service area.
func TestDirectoryMatchesLinearOracle(t *testing.T) {
	bounds := geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(10000, 10000)}
	// Exercise several cell layouts, including a deliberately tiny grid
	// where every query covers many cells and a coarse one-cell-ish grid.
	for _, cell := range []float64{0, 100, 3000, 20000} {
		cell := cell
		t.Run(fmt.Sprintf("cell=%g", cell), func(t *testing.T) {
			s := newBareServer(bounds, cell)
			ps := newPositions(s.dir)
			rng := rand.New(rand.NewSource(7))
			var all []*session
			randPos := func() geom.Point {
				// Mostly in bounds, sometimes well outside (clamped into
				// border cells — the directory must still find them).
				return geom.Pt(rng.Float64()*14000-2000, rng.Float64()*14000-2000)
			}
			for round := 0; round < 300; round++ {
				switch op := rng.Intn(10); {
				case op < 3 || len(all) == 0: // join
					sess := &session{conn: &WSConn{}}
					all = append(all, sess)
					if rng.Intn(4) > 0 { // most sessions stream a position
						ps.stream(sess, randPos())
					}
				case op < 5: // leave
					i := rng.Intn(len(all))
					ps.leave(all[i])
					all[i] = all[len(all)-1]
					all = all[:len(all)-1]
					if len(all) == 0 {
						continue
					}
				default: // move
					sess := all[rng.Intn(len(all))]
					ps.stream(sess, randPos())
				}

				for q := 0; q < 4; q++ {
					loc := randPos()
					radius := []float64{0, 150, 2500, 50000}[rng.Intn(4)]
					var exclude *session
					if rng.Intn(2) == 0 {
						exclude = all[rng.Intn(len(all))]
					}
					grid := s.dir.collectTargets(exclude, loc, radius, nil)
					linear := ps.collectTargetsLinear(exclude, loc, radius, nil)
					gs, ls := targetSet(grid), targetSet(linear)
					if len(grid) != len(gs) {
						t.Fatalf("round %d: directory returned %d targets with duplicates (%d unique)",
							round, len(grid), len(gs))
					}
					if len(gs) != len(ls) {
						t.Fatalf("round %d q=%v r=%g: directory found %d targets, linear oracle %d",
							round, loc, radius, len(gs), len(ls))
					}
					for sess := range ls {
						if !gs[sess] {
							t.Fatalf("round %d q=%v r=%g: target mismatch vs oracle", round, loc, radius)
						}
					}
				}
			}
			if s.dir.patchOps.Load() == 0 || s.dir.cellsScanned.Load() == 0 {
				t.Fatalf("directory counters never advanced: patch=%d scanned=%d",
					s.dir.patchOps.Load(), s.dir.cellsScanned.Load())
			}
		})
	}
}

// The daemon's layout is fixed: a cell of 1/64 of the service area's
// larger side.
func TestDirectoryDefaultLayout(t *testing.T) {
	d := newSessionDirectory(geom.Rect{Min: geom.Pt(-500, 100), Max: geom.Pt(19500, 10100)}, 0)
	if d.geo.Cell() != 20000.0/64 || d.geo.NX() != 64 || d.geo.NY() != 32 {
		t.Errorf("cell %g, %dx%d cells; want %g, 64x32", d.geo.Cell(), d.geo.NX(), d.geo.NY(), 20000.0/64)
	}
}

// Degenerate bounds collapse to one cell under the default layout (the cell
// math itself is pinned in internal/grid); a far-out session must still be
// found through its clamped cell.
func TestDirectoryDegenerateBounds(t *testing.T) {
	for _, bounds := range []geom.Rect{
		{},
		{Min: geom.Pt(5, 5), Max: geom.Pt(5, 5)},
		{Min: geom.Pt(0, 0), Max: geom.Pt(1, 0)},
	} {
		d := newSessionDirectory(bounds, 0)
		sess := &session{conn: &WSConn{}}
		p := geom.Pt(1e9, -1e9)
		d.update(sess, p)
		got := d.collectTargets(nil, p, 1, nil)
		if len(got) != 1 || got[0] != sess {
			t.Fatalf("bounds %+v: far-out session not found via clamped cell", bounds)
		}
	}
}

// Movers streaming positions, scanners, and sessions leaving and joining
// throughout must stay race-free, never yield a target without a
// connection, and keep the directory's slot bookkeeping intact. Each
// session is driven by one goroutine, as its connection drives it in the
// daemon. Run under -race in CI's test job.
func TestDirectoryConcurrentChurn(t *testing.T) {
	bounds := geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(10000, 10000)}
	s := newBareServer(bounds, 200)
	ps := newPositions(s.dir)
	const perWorker, iters = 16, 400
	randPt := func(rng *rand.Rand) geom.Point { return geom.Pt(rng.Float64()*10000, rng.Float64()*10000) }
	var wg sync.WaitGroup
	// Movers, churners and scanners: every combination of update/update,
	// update/remove, update/scan and remove/scan interleavings gets
	// exercised, on shared cell buckets.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			own := make([]*session, perWorker)
			for i := range own {
				own[i] = &session{conn: &WSConn{}}
			}
			for i := 0; i < iters; i++ {
				ps.stream(own[rng.Intn(perWorker)], randPt(rng))
			}
		}(int64(w))
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(200 + seed))
			own := make([]*session, perWorker)
			for i := 0; i < iters; i++ {
				j := rng.Intn(perWorker)
				if own[j] != nil && rng.Intn(2) == 0 {
					ps.leave(own[j])
					own[j] = nil
					continue
				}
				if own[j] == nil {
					own[j] = &session{conn: &WSConn{}}
				}
				ps.stream(own[j], randPt(rng))
			}
		}(int64(w))
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(100 + seed))
			var scratch []*session
			for i := 0; i < iters; i++ {
				scratch = s.dir.collectTargets(nil, randPt(rng), 1000, scratch[:0])
				for _, tg := range scratch {
					if tg.conn == nil {
						t.Error("collected target with nil conn")
						return
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()

	// The index must still agree with the oracle once the dust settles.
	grid := targetSet(s.dir.collectTargets(nil, geom.Pt(5000, 5000), 50000, nil))
	linear := targetSet(ps.collectTargetsLinear(nil, geom.Pt(5000, 5000), 50000, nil))
	if len(grid) != len(linear) {
		t.Fatalf("post-churn mismatch: directory %d targets, oracle %d", len(grid), len(linear))
	}
	for sess := range linear {
		if !grid[sess] {
			t.Fatal("post-churn target mismatch vs oracle")
		}
	}
}

// positions is the linear oracle: every session's last streamed position in
// one table, swept whole, which the property tests pin the grid directory
// against and BenchmarkRelayFanout measures the speedup from. The table is
// its own: production keeps positions only in the directory's cells.
type positions struct {
	dir *sessionDirectory
	mu  sync.Mutex
	at  map[*session]geom.Point
}

func newPositions(d *sessionDirectory) *positions {
	return &positions{dir: d, at: make(map[*session]geom.Point)}
}

// stream records p for the oracle and moves sess in the directory, the two
// things a Position frame means to the two implementations.
func (ps *positions) stream(sess *session, p geom.Point) {
	ps.mu.Lock()
	ps.at[sess] = p
	ps.mu.Unlock()
	ps.dir.update(sess, p)
}

// leave forgets sess in both, as its connection's end does.
func (ps *positions) leave(sess *session) {
	ps.mu.Lock()
	delete(ps.at, sess)
	ps.mu.Unlock()
	ps.dir.remove(sess)
}

// collectTargetsLinear must keep selecting exactly the target set
// collectTargets selects.
func (ps *positions) collectTargetsLinear(exclude *session, q geom.Point, radius float64, dst []*session) []*session {
	r2 := radius * radius
	ps.mu.Lock()
	for sess, pos := range ps.at {
		if sess == exclude || q.Dist2(pos) > r2 {
			continue
		}
		dst = append(dst, sess)
	}
	ps.mu.Unlock()
	return dst
}
