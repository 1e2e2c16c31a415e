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
func newBareServer(bounds geom.Rect, cell float64, shards int) *Server {
	return &Server{dir: newSessionDirectory(bounds, cell, shards)}
}

// targetSet reduces a target slice to a comparable set. The directory
// enumerates cell-major and the linear sweep in map order, so equivalence
// is set equality — the relay's countdown is order-insensitive (pinned by
// TestRelayCountdownOrderInsensitive).
func targetSet(ts []relayTarget) map[*session]*WSConn {
	m := make(map[*session]*WSConn, len(ts))
	for _, t := range ts {
		m[t.sess] = t.conn
	}
	return m
}

// The directory's target selection must be exactly the linear sweep's under
// randomized join/leave/move churn: same sessions, same captured conns, for
// query points and radii inside, on, and far outside the service area.
func TestDirectoryMatchesLinearOracle(t *testing.T) {
	bounds := geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(10000, 10000)}
	// Exercise several cell layouts, including a deliberately tiny grid
	// where every query covers many cells and a coarse one-cell-ish grid.
	for _, cell := range []float64{0, 100, 3000, 20000} {
		cell := cell
		t.Run(fmt.Sprintf("cell=%g", cell), func(t *testing.T) {
			s := newBareServer(bounds, cell, 8)
			ps := newPositions()
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
					sess := &session{}
					if rng.Intn(2) == 0 {
						sess.conn = &WSConn{}
					}
					all = append(all, sess)
					if rng.Intn(4) > 0 { // most sessions stream a position
						ps.stream(s.dir, sess, randPos())
					}
				case op < 5: // disconnect / reconnect
					sess := all[rng.Intn(len(all))]
					sess.mu.Lock()
					if sess.conn == nil {
						sess.conn = &WSConn{}
					} else {
						sess.conn = nil
					}
					sess.mu.Unlock()
				default: // move
					sess := all[rng.Intn(len(all))]
					ps.stream(s.dir, sess, randPos())
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
					for sess, conn := range ls {
						if gs[sess] != conn {
							t.Fatalf("round %d q=%v r=%g: target/conn mismatch vs oracle", round, loc, radius)
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

// The daemon's layout is fixed: 64 lock stripes and a cell of 1/64 of the
// service area's larger side.
func TestDirectoryDefaultLayout(t *testing.T) {
	d := newSessionDirectory(geom.Rect{Min: geom.Pt(-500, 100), Max: geom.Pt(19500, 10100)}, 0, 0)
	if len(d.shards) != 64 || d.mask != 63 {
		t.Errorf("%d shards, mask %#x; want 64, 0x3f", len(d.shards), d.mask)
	}
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
		d := newSessionDirectory(bounds, 0, 0)
		sess := &session{conn: &WSConn{}}
		p := geom.Pt(1e9, -1e9)
		d.update(sess, p)
		got := d.collectTargets(nil, p, 1, nil)
		if len(got) != 1 || got[0].sess != sess {
			t.Fatalf("bounds %+v: far-out session not found via clamped cell", bounds)
		}
	}
}

// A session that streams positions from two goroutines (a superseded
// connection racing its replacement) and range scans running throughout
// must stay race-free and keep the directory's slot bookkeeping intact.
// Run under -race in CI's test job.
func TestDirectoryConcurrentChurn(t *testing.T) {
	bounds := geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(10000, 10000)}
	s := newBareServer(bounds, 200, 16)
	ps := newPositions()
	const nSessions = 64
	sessions := make([]*session, nSessions)
	for i := range sessions {
		sessions[i] = &session{conn: &WSConn{}}
	}
	const iters = 400
	var wg sync.WaitGroup
	// Two writers per session stripe plus scanners: every combination of
	// update/update and update/scan interleavings gets exercised.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				sess := sessions[rng.Intn(nSessions)]
				ps.stream(s.dir, sess, geom.Pt(rng.Float64()*10000, rng.Float64()*10000))
			}
		}(int64(w))
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(100 + seed))
			var scratch []relayTarget
			for i := 0; i < iters; i++ {
				loc := geom.Pt(rng.Float64()*10000, rng.Float64()*10000)
				scratch = s.dir.collectTargets(nil, loc, 1000, scratch[:0])
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
	for sess, conn := range linear {
		if grid[sess] != conn {
			t.Fatal("post-churn target/conn mismatch vs oracle")
		}
	}
}

// positions is the pre-directory implementation — every session's last
// streamed position in one table, swept whole under one lock — kept as the
// oracle the property tests pin the grid directory against and as the
// baseline BenchmarkRelayFanout measures the speedup from. The table is its
// own: production keeps positions only in the directory's cells.
type positions struct {
	mu sync.Mutex
	at map[*session]geom.Point
}

func newPositions() *positions {
	return &positions{at: make(map[*session]geom.Point)}
}

// stream records p for the oracle and moves sess in the directory, the two
// things a Position frame means to the two implementations.
func (ps *positions) stream(d *sessionDirectory, sess *session, p geom.Point) {
	ps.mu.Lock()
	ps.at[sess] = p
	ps.mu.Unlock()
	d.update(sess, p)
}

// collectTargetsLinear must keep selecting exactly the target set
// collectTargets selects.
func (ps *positions) collectTargetsLinear(exclude *session, q geom.Point, radius float64, dst []relayTarget) []relayTarget {
	r2 := radius * radius
	ps.mu.Lock()
	for sess, pos := range ps.at {
		if sess == exclude {
			continue
		}
		sess.mu.Lock()
		conn := sess.conn
		sess.mu.Unlock()
		if conn == nil {
			continue
		}
		if q.Dist2(pos) > r2 {
			continue
		}
		dst = append(dst, relayTarget{sess: sess, conn: conn})
	}
	ps.mu.Unlock()
	return dst
}
