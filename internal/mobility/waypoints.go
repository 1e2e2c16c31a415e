package mobility

import (
	"math"
	"unsafe"

	"repro/internal/geom"
)

// SplitMix64 is a compact deterministic PRNG (Steele, Lea, Flood: "Fast
// splittable pseudorandom number generators", OOPSLA 2014). Its whole state
// is 8 bytes, versus the ~5 KB state vector a math/rand.Rand carries — the
// difference between 8 MB and 5 GB of generator state at a million hosts.
// The zero value is a valid (seed 0) generator.
type SplitMix64 uint64

// Uint64 returns the next pseudorandom value and advances the state.
func (s *SplitMix64) Uint64() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a pseudorandom number in [0, 1).
func (s *SplitMix64) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Waypoints is the free movement mode, a structure-of-arrays random waypoint
// engine: one instance advances an entire free-movement population through
// parallel slices. Each slot picks a destination (optionally within the trip
// radius of where it stands, mirroring the road mode's bounded trips so the
// two modes stay comparable — DESIGN.md D6), travels straight at the
// population's fixed speed, arrives, pauses uniformly in [0, maxPause), and
// repeats. The per-step state is laid out for streaming:
//
//   - dest/vel/left encode the current leg as an endpoint, a velocity vector
//     and the travel time remaining, so a steady-state step is a
//     multiply-add with no square root (distances are computed once per leg,
//     when it is picked);
//   - positions live with the caller (the simulator's own SoA column), so
//     the engine never duplicates them: Advance takes the current position
//     and returns the new one.
//
// Slots are independent: concurrent Advance calls on disjoint slots are
// safe, and each slot's trajectory depends only on its own seed and start —
// never on the slot's number or on how many slots the engine has. Callers
// therefore size the engine to their movers, not their population (the
// simulator's slot j drives host moving[j]), and a parked host costs nothing
// here (TestWaypointsSlotNumberingIrrelevant).
type Waypoints struct {
	bounds     geom.Rect
	speed      float64 // m/s, shared by the whole population
	maxPause   float64 // seconds
	tripRadius float64 // 0 = anywhere in bounds

	dest  []geom.Point // current leg endpoint (exact arrival target)
	vel   []geom.Point // velocity vector of the current leg, m/s
	left  []float64    // travel time remaining on the leg, seconds
	pause []float64    // pause time remaining, seconds
	rng   []SplitMix64
}

// NewWaypoints builds an engine with n slots. speed must be positive. Slots
// start unseeded (parked at whatever position the caller holds); arm each
// moving host with Seed.
func NewWaypoints(bounds geom.Rect, speed, maxPause, tripRadius float64, n int) *Waypoints {
	if speed <= 0 {
		panic("mobility: speed must be positive")
	}
	return &Waypoints{
		bounds:     bounds,
		speed:      speed,
		maxPause:   maxPause,
		tripRadius: tripRadius,
		dest:       make([]geom.Point, n),
		vel:        make([]geom.Point, n),
		left:       make([]float64, n),
		pause:      make([]float64, n),
		rng:        make([]SplitMix64, n),
	}
}

// Bytes returns the engine's per-slot state in bytes — 56 per slot: dest,
// vel, left, pause, rng — computed from the slice lengths.
func (w *Waypoints) Bytes() int64 {
	const perSlot = 2*unsafe.Sizeof(geom.Point{}) + 2*unsafe.Sizeof(float64(0)) + unsafe.Sizeof(SplitMix64(0))
	return int64(len(w.rng)) * int64(perSlot)
}

// Seed arms slot i at start: installs its private RNG seed and picks the
// first destination.
func (w *Waypoints) Seed(i int, start geom.Point, seed uint64) {
	w.rng[i] = SplitMix64(seed)
	w.pause[i] = 0
	w.pickLeg(i, start)
}

// pickLeg draws the next destination from pos — within the trip radius by
// rejection sampling, anywhere in bounds when that fails or is off — and
// caches the leg's velocity vector and duration, the one place a distance
// (and its square root) is computed.
func (w *Waypoints) pickLeg(i int, pos geom.Point) {
	rng := &w.rng[i]
	dest := geom.Point{}
	picked := false
	if w.tripRadius > 0 {
		for attempt := 0; attempt < 16; attempt++ {
			angle := rng.Float64() * 2 * math.Pi
			r := w.tripRadius * math.Sqrt(rng.Float64())
			p := pos.Add(geom.Pt(r*math.Cos(angle), r*math.Sin(angle)))
			if w.bounds.Contains(p) {
				dest = p
				picked = true
				break
			}
		}
		// Corner-trapped: fall through to an unbounded pick.
	}
	if !picked {
		dest = geom.Pt(
			w.bounds.Min.X+rng.Float64()*w.bounds.Width(),
			w.bounds.Min.Y+rng.Float64()*w.bounds.Height(),
		)
	}
	w.dest[i] = dest
	d := pos.Dist(dest)
	w.left[i] = d / w.speed
	if d > 0 {
		s := w.speed / d
		w.vel[i] = geom.Pt((dest.X-pos.X)*s, (dest.Y-pos.Y)*s)
	} else {
		w.vel[i] = geom.Pt(0, 0)
	}
}

// Advance moves slot i from pos by dt seconds and returns the new position.
func (w *Waypoints) Advance(i int, pos geom.Point, dt float64) geom.Point {
	for dt > 0 {
		if p := w.pause[i]; p > 0 {
			if p >= dt {
				w.pause[i] = p - dt
				return pos
			}
			dt -= p
			w.pause[i] = 0
		}
		left := w.left[i]
		if left > dt {
			w.left[i] = left - dt
			v := w.vel[i]
			return geom.Pt(pos.X+v.X*dt, pos.Y+v.Y*dt)
		}
		// Arrive exactly (no drift accumulation), draw the pause, then pick
		// the next leg.
		pos = w.dest[i]
		dt -= left
		if w.maxPause > 0 {
			w.pause[i] = w.rng[i].Float64() * w.maxPause
		}
		w.pickLeg(i, pos)
	}
	return pos
}
