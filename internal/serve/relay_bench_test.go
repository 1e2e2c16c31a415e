package serve

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// BenchmarkRelayFanout measures the relay's in-range target selection —
// the per-PeerRequest hot path — with the grid directory against the
// retained linear sweep, at 1k and 100k registered sessions. The radius is
// sized so a query finds a realistic neighborhood (a few dozen peers at
// 100k sessions); CI gates grid ≥5× linear at 100k and zero steady-state
// allocations on the grid path.
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
		s := newBareServer(bounds, 0, 0)
		ps := newPositions()
		rng := rand.New(rand.NewSource(11))
		sessions := make([]*session, bc.n)
		conn := &WSConn{} // attached is all the sweep asks of it; one serves every session
		for i := range sessions {
			sess := &session{conn: conn}
			ps.stream(s.dir, sess, geom.Pt(rng.Float64()*20000, rng.Float64()*20000))
			sessions[i] = sess
		}
		queries := make([]geom.Point, 256)
		for i := range queries {
			queries[i] = geom.Pt(rng.Float64()*20000, rng.Float64()*20000)
		}
		exclude := sessions[0]

		b.Run("grid/sessions="+bc.name, func(b *testing.B) {
			var targets []relayTarget
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
			var targets []relayTarget
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
}
