package serve

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/geom"
)

// BenchmarkRelayFanout measures the relay's in-range target selection —
// the per-PeerRequest hot path — with the grid directory against the
// retained linear sweep, at 1k and 100k registered sessions. The radius is
// sized so a query finds a realistic neighborhood (a few dozen peers at
// 100k sessions); CI gates grid ≥5× linear at 100k and zero steady-state
// allocations on the grid path. contended runs the directory's two
// operations against each other from GOMAXPROCS goroutines: see below.
func BenchmarkRelayFanout(b *testing.B) {
	bounds := geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(20000, 20000)}
	const radius = 200.0
	for _, bc := range []struct {
		name string
		n    int
	}{
		{"1k", 1000},
		{"100k", 100000},
	} {
		s := newBareServer(bounds, 0)
		ps := newPositions(s.dir)
		rng := rand.New(rand.NewSource(11))
		sessions := make([]*session, bc.n)
		conn := &WSConn{} // the sweep never touches it; one serves every session
		for i := range sessions {
			sess := &session{conn: conn}
			ps.stream(sess, geom.Pt(rng.Float64()*20000, rng.Float64()*20000))
			sessions[i] = sess
		}
		queries := make([]geom.Point, 256)
		for i := range queries {
			queries[i] = geom.Pt(rng.Float64()*20000, rng.Float64()*20000)
		}
		exclude := sessions[0]

		b.Run("grid/sessions="+bc.name, func(b *testing.B) {
			var targets []*session
			// Warm the scratch to the worst-case neighborhood before the
			// measured window so steady state reports zero allocations even
			// at -benchtime 1x.
			for _, q := range queries {
				targets = s.dir.collectTargets(exclude, q, radius, targets[:0])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				targets = s.dir.collectTargets(exclude, queries[i%len(queries)], radius, targets[:0])
			}
			_ = targets
		})
		b.Run("linear/sessions="+bc.name, func(b *testing.B) {
			var targets []*session
			for _, q := range queries {
				targets = ps.collectTargetsLinear(exclude, q, radius, targets[:0])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				targets = ps.collectTargetsLinear(exclude, queries[i%len(queries)], radius, targets[:0])
			}
			_ = targets
		})
	}

	// contended is the daemon's traffic shape on the directory's one lock:
	// 1,024 connected sessions, every op streams one Position and every
	// other op also runs a relay scan at senn-load's default 1,000 m
	// transmission radius (81 covered cells). Run it at -cpu 2 and -cpu 8,
	// for a second or more, to see what the lock costs under contention;
	// at -benchtime 1x the one op pays for starting the goroutines.
	b.Run("contended", func(b *testing.B) {
		const n, radius = 1024, 1000.0
		s := newBareServer(bounds, 0)
		rng := rand.New(rand.NewSource(13))
		randPt := func(rng *rand.Rand) geom.Point { return geom.Pt(rng.Float64()*20000, rng.Float64()*20000) }
		sessions := make([]*session, n)
		conn := &WSConn{}
		for i := range sessions {
			sessions[i] = &session{conn: conn}
			s.dir.update(sessions[i], randPt(rng))
		}
		// Every cell gets its bucket, and the buckets their usual sizes,
		// before the timer starts, so the measured window does not
		// allocate.
		cell := s.dir.geo.Cell()
		walker := &session{conn: conn}
		for y := 0; y < s.dir.geo.NY(); y++ {
			for x := 0; x < s.dir.geo.NX(); x++ {
				s.dir.update(walker, geom.Pt((float64(x)+0.5)*cell, (float64(y)+0.5)*cell))
			}
		}
		for i := 0; i < 16*n; i++ {
			s.dir.update(sessions[rng.Intn(n)], randPt(rng))
		}
		type worker struct {
			rng     *rand.Rand
			targets []*session
		}
		workers := make([]worker, runtime.GOMAXPROCS(0))
		for i := range workers {
			workers[i] = worker{rand.New(rand.NewSource(int64(100 + i))), make([]*session, 0, n)}
		}
		var next atomic.Int32
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			w := &workers[next.Add(1)-1]
			for op := 0; pb.Next(); op++ {
				s.dir.update(sessions[w.rng.Intn(n)], randPt(w.rng))
				if op%2 == 1 {
					w.targets = s.dir.collectTargets(nil, randPt(w.rng), radius, w.targets[:0])
				}
			}
		})
	})
}
