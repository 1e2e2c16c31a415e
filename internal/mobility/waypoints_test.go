package mobility

import (
	"math"
	"testing"

	"repro/internal/geom"
)

func TestWaypointsStaysInBounds(t *testing.T) {
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))
	w := NewWaypoints(bounds, 10, 5, 0, 3)
	pos := []geom.Point{geom.Pt(50, 50), geom.Pt(1, 1), geom.Pt(99, 99)}
	for i := range pos {
		w.Seed(i, pos[i], uint64(i)*7+1)
	}
	for step := 0; step < 5000; step++ {
		for i := range pos {
			pos[i] = w.Advance(i, pos[i], 1)
			if !bounds.Contains(pos[i]) {
				t.Fatalf("slot %d step %d: position %v out of bounds", i, step, pos[i])
			}
		}
	}
}

func TestWaypointsSpeedRespected(t *testing.T) {
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(1000, 1000))
	speed := 13.4
	w := NewWaypoints(bounds, speed, 0, 0, 1)
	pos := geom.Pt(500, 500)
	w.Seed(0, pos, 99)
	var rng SplitMix64 = 5
	for i := 0; i < 2000; i++ {
		dt := 0.5 + rng.Float64()
		p := w.Advance(0, pos, dt)
		if d := pos.Dist(p); d > speed*dt+1e-9 {
			t.Fatalf("step %d: moved %v m in %v s at speed %v", i, d, dt, speed)
		}
		pos = p
	}
}

// TestRandomWaypointStaysInBounds: with a small trip radius and a start in a
// corner, many destination draws land outside the area and are rejected; the
// host must still never leave the bounds.
func TestRandomWaypointStaysInBounds(t *testing.T) {
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))
	w := NewWaypoints(bounds, 10, 5, 30, 1)
	pos := geom.Pt(0, 0)
	w.Seed(0, pos, 1)
	for i := 0; i < 5000; i++ {
		pos = w.Advance(0, pos, 1)
		if !bounds.Contains(pos) {
			t.Fatalf("step %d: position %v out of bounds", i, pos)
		}
	}
}

// TestRandomWaypointSpeedRespected: the speed cap holds across arrivals,
// pauses and leg re-picks that fall inside a single uneven step.
func TestRandomWaypointSpeedRespected(t *testing.T) {
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(1000, 1000))
	speed := 13.4 // 30 mph
	w := NewWaypoints(bounds, speed, 5, 40, 1)
	pos := geom.Pt(500, 500)
	w.Seed(0, pos, 2)
	var rng SplitMix64 = 2
	for i := 0; i < 2000; i++ {
		dt := 0.5 + rng.Float64()
		p := w.Advance(0, pos, dt)
		if d := pos.Dist(p); d > speed*dt+1e-9 {
			t.Fatalf("step %d: moved %v m in %v s at speed %v", i, d, dt, speed)
		}
		pos = p
	}
}

func TestWaypointsTripRadius(t *testing.T) {
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(10000, 10000))
	const radius = 500.0
	w := NewWaypoints(bounds, 10, 0, radius, 1)
	pos := geom.Pt(5000, 5000)
	w.Seed(0, pos, 1)
	// Every leg's destination must stay within the trip radius of the point
	// where it was picked (the population is far from the walls, so the
	// corner-trap fallback never fires here). With no pause, a new leg is
	// picked inside the arriving Advance call, so leg changes are observed
	// as dest changes; each new destination was drawn from the previous one.
	picked := pos
	legs := 0
	for step := 0; step < 100000 && legs < 200; step++ {
		prev := w.dest[0]
		if d := picked.Dist(prev); d > radius+1e-9 {
			t.Fatalf("leg %d: destination %v at %v m from %v, radius %v", legs, prev, d, picked, radius)
		}
		pos = w.Advance(0, pos, 1)
		if !w.dest[0].Eq(prev) {
			picked = prev // the new leg was picked at the old destination
			legs++
		}
	}
	if legs < 10 {
		t.Fatalf("only %d legs observed", legs)
	}
}

// TestWaypointsPauses: with a tiny area, high speed and long pauses a host
// is usually paused, so consecutive positions often coincide, and every
// pause it draws lies in [0, maxPause).
func TestWaypointsPauses(t *testing.T) {
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(10, 10))
	const maxPause = 10.0
	w := NewWaypoints(bounds, 100, maxPause, 0, 1)
	pos := geom.Pt(5, 5)
	w.Seed(0, pos, 3)
	same := 0
	for i := 0; i < 1000; i++ {
		p := w.Advance(0, pos, 0.1)
		if p.Eq(pos) {
			same++
		}
		if pause := w.pause[0]; pause < 0 || pause >= maxPause {
			t.Fatalf("step %d: pause %v outside [0, %v)", i, pause, maxPause)
		}
		pos = p
	}
	if same == 0 {
		t.Error("host never paused despite maxPause=10")
	}
}

// TestWaypointsEventuallyCoversArea: unbounded destination choice reaches
// every part of the area, not a corner of it.
func TestWaypointsEventuallyCoversArea(t *testing.T) {
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))
	w := NewWaypoints(bounds, 20, 0, 0, 1)
	pos := geom.Pt(0, 0)
	w.Seed(0, pos, 4)
	visited := map[[2]int]bool{}
	for i := 0; i < 20000; i++ {
		pos = w.Advance(0, pos, 1)
		visited[[2]int{int(pos.X / 25), int(pos.Y / 25)}] = true
	}
	if len(visited) < 12 {
		t.Errorf("visited only %d of 16 area cells", len(visited))
	}
}

func TestWaypointsValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero speed should panic")
		}
	}()
	NewWaypoints(geom.NewRect(geom.Pt(0, 0), geom.Pt(1, 1)), 0, 0, 0, 1)
}

// TestWaypointsArrivesExactly pins the no-drift property the sqrt-free leg
// encoding relies on: when the remaining travel time is consumed, the
// position is the destination bit-for-bit, not an accumulation of
// multiply-add steps that lands nearby.
func TestWaypointsArrivesExactly(t *testing.T) {
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(1000, 1000))
	w := NewWaypoints(bounds, 7, 3, 0, 1)
	pos := geom.Pt(100, 100)
	w.Seed(0, pos, 1234)
	arrivals := 0
	for step := 0; step < 20000 && arrivals < 50; step++ {
		dest := w.dest[0]
		left := w.left[0]
		if w.pause[0] == 0 && left <= 1 {
			// This step arrives: Advance must pass through dest exactly. With
			// a pause pending afterwards the returned position IS dest; with
			// an instant re-pick it already moved on, so check via the pause.
			p := w.Advance(0, pos, 1)
			if w.pause[0] > 0 && !p.Eq(dest) {
				t.Fatalf("step %d: paused at %v, want exact arrival at %v", step, p, dest)
			}
			pos = p
			arrivals++
			continue
		}
		pos = w.Advance(0, pos, 1)
	}
	if arrivals == 0 {
		t.Fatal("no arrivals observed")
	}
}

// TestWaypointsDeterministicPerSlot: a slot's trajectory is a pure function
// of its seed and start — independent of how many other slots exist or in
// what order they advance.
func TestWaypointsDeterministicPerSlot(t *testing.T) {
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(500, 500))
	solo := NewWaypoints(bounds, 5, 2, 0, 1)
	crowd := NewWaypoints(bounds, 5, 2, 0, 64)
	start := geom.Pt(250, 250)
	solo.Seed(0, start, 42)
	crowd.Seed(37, start, 42)
	for i := 0; i < 64; i++ {
		if i != 37 {
			crowd.Seed(i, geom.Pt(float64(i), float64(i)), uint64(i))
		}
	}
	a, b := start, start
	for step := 0; step < 3000; step++ {
		// Advance the crowd's other slots first, interleaved, to prove
		// isolation.
		for i := 0; i < 64; i++ {
			if i != 37 {
				crowd.Advance(i, geom.Pt(float64(i), float64(i)), 1)
			}
		}
		a = solo.Advance(0, a, 1)
		b = crowd.Advance(37, b, 1)
		if !a.Eq(b) {
			t.Fatalf("step %d: solo %v, crowd %v", step, a, b)
		}
	}
}

func TestSplitMix64Reference(t *testing.T) {
	var s SplitMix64 = 1234567
	got := []uint64{s.Uint64(), s.Uint64(), s.Uint64()}
	// The sequence must be reproducible and non-degenerate.
	if got[0] == got[1] || got[1] == got[2] {
		t.Fatalf("degenerate sequence %v", got)
	}
	var s2 SplitMix64 = 1234567
	for i, w := range got {
		if g := s2.Uint64(); g != w {
			t.Fatalf("replay %d: %x != %x", i, g, w)
		}
	}
	// Float64 stays in [0,1).
	for i := 0; i < 1000; i++ {
		if f := s.Float64(); f < 0 || f >= 1 || math.IsNaN(f) {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

// TestWaypointsSlotNumberingIrrelevant is what lets the simulator size the
// engine to its movers: the same (start, seed) pairs are run once in a
// population-sized engine at scattered host-index slots — the old layout,
// nine slots in ten never seeded — and once in an engine with exactly one
// slot per mover, numbered densely. Over 10,000 steps (pauses, trip-radius
// rejection sampling and wall clamps all exercised) every position must be
// bit-equal: a trajectory depends on its seed and start alone.
func TestWaypointsSlotNumberingIrrelevant(t *testing.T) {
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(2000, 1500))
	const (
		hosts  = 400
		movers = 40
		steps  = 10000
	)
	sparse := NewWaypoints(bounds, 13.4, 30, 600, hosts)
	dense := NewWaypoints(bounds, 13.4, 30, 600, movers)
	if got := dense.Bytes(); got != movers*56 {
		t.Fatalf("dense engine reports %d B for %d slots, want 56 B per slot", got, movers)
	}
	var rng SplitMix64 = 18
	host := make([]int, movers) // ascending, scattered over the host index
	posSparse := make([]geom.Point, movers)
	posDense := make([]geom.Point, movers)
	for j := range host {
		host[j] = j*(hosts/movers) + int(rng.Uint64()%uint64(hosts/movers))
		start := geom.Pt(rng.Float64()*2000, rng.Float64()*1500)
		seed := rng.Uint64()
		sparse.Seed(host[j], start, seed)
		dense.Seed(j, start, seed)
		posSparse[j], posDense[j] = start, start
	}
	for step := 0; step < steps; step++ {
		dt := 1.0
		if step%7 == 0 {
			dt = 0.25 + 3*rng.Float64() // uneven steps, as at the end of a run
		}
		for j := range host {
			posSparse[j] = sparse.Advance(host[j], posSparse[j], dt)
			posDense[j] = dense.Advance(j, posDense[j], dt)
			a, b := posSparse[j], posDense[j]
			if math.Float64bits(a.X) != math.Float64bits(b.X) || math.Float64bits(a.Y) != math.Float64bits(b.Y) {
				t.Fatalf("step %d mover %d: host-indexed slot %d at %v, dense slot at %v", step, j, host[j], a, b)
			}
		}
	}
}
