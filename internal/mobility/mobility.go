// Package mobility implements the two movement generators of the paper's
// simulator (§4.1): the free movement mode — the random waypoint model of
// Broch et al. with a fixed velocity and random pauses (Waypoints) — and the
// road network mode (RoadNetwork), where hosts travel along a spatialnet
// graph at the speed limit of the segment they are on (capped by the host's
// own target velocity).
//
// Both are deterministic given their random source, which the simulator
// exploits for reproducible experiments.
package mobility

import (
	"math"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/spatialnet"
)

// RoadNetwork implements the road network mode: the host picks a random
// destination node, follows the shortest path to it, and travels each
// segment at min(target velocity, segment speed limit) — hosts monitor the
// speed limit of the road they are on and adjust (§4.1.2).
type RoadNetwork struct {
	graph    *spatialnet.Graph
	finder   *spatialnet.PathFinder
	target   float64 // host target velocity, m/s
	maxPause float64
	// tripRadius, when positive, bounds how far away destinations are
	// picked; large simulations use it to keep route planning local.
	tripRadius float64
	rng        *rand.Rand

	pos   geom.Point
	at    spatialnet.NodeID // node most recently departed from or arrived at
	path  []spatialnet.NodeID
	seg   int     // index into path: traveling path[seg] -> path[seg+1]
	along float64 // meters progressed on the current segment
	pause float64
	// Current segment properties, cached when the segment is entered.
	segLen, segSpeed float64
}

// RoadNetworkOptions configures NewRoadNetworkWith beyond the required
// parameters.
type RoadNetworkOptions struct {
	// Finder is a shared route planner; nil creates a private one. Sharing
	// one PathFinder across all (sequentially advanced) hosts avoids
	// per-host scratch memory.
	Finder *spatialnet.PathFinder
	// TripRadius bounds destination choice to nodes near the host's current
	// position (0 = anywhere in the graph).
	TripRadius float64
}

// NewRoadNetworkWith creates a road-bound host starting at the given node.
// target is the host's desired velocity in m/s (the M_Velocity parameter).
func NewRoadNetworkWith(g *spatialnet.Graph, start spatialnet.NodeID, target, maxPause float64, rng *rand.Rand, opts RoadNetworkOptions) *RoadNetwork {
	if target <= 0 {
		panic("mobility: target velocity must be positive")
	}
	finder := opts.Finder
	if finder == nil {
		finder = spatialnet.NewPathFinder(g)
	}
	m := &RoadNetwork{
		graph:      g,
		finder:     finder,
		target:     target,
		maxPause:   maxPause,
		tripRadius: opts.TripRadius,
		rng:        rng,
		at:         start,
		pos:        g.Loc(start),
	}
	m.pickDestination()
	return m
}

// pickDestination chooses a new random reachable destination and computes
// the path. Hosts on an isolated node stay put.
func (m *RoadNetwork) pickDestination() {
	m.path, m.seg, m.along = nil, 0, 0
	for attempt := 0; attempt < 8; attempt++ {
		var dest spatialnet.NodeID
		if m.tripRadius > 0 {
			// Aim at a random point within the trip radius and snap to the
			// nearest node.
			angle := m.rng.Float64() * 2 * math.Pi
			r := m.tripRadius * math.Sqrt(m.rng.Float64())
			target := m.pos.Add(geom.Pt(r*math.Cos(angle), r*math.Sin(angle)))
			d, ok := m.graph.NearestNodeIndexed(target)
			if !ok {
				return
			}
			dest = d
		} else {
			dest = spatialnet.NodeID(m.rng.Intn(m.graph.NumNodes()))
		}
		if dest == m.at {
			continue
		}
		_, path, ok := m.finder.ShortestPath(m.at, dest)
		if ok && len(path) > 1 {
			m.path = path
			m.enterSegment()
			return
		}
	}
}

// enterSegment caches the length and speed of the segment path[seg] ->
// path[seg+1].
func (m *RoadNetwork) enterSegment() {
	from, to := m.path[m.seg], m.path[m.seg+1]
	m.segLen = m.graph.Loc(from).Dist(m.graph.Loc(to))
	m.segSpeed = m.target
	m.graph.Neighbors(from, func(n spatialnet.NodeID, _ float64, c spatialnet.RoadClass) {
		if n == to {
			if lim := c.SpeedLimit(); lim < m.segSpeed {
				m.segSpeed = lim
			}
		}
	})
	if m.segSpeed <= 0 {
		m.segSpeed = m.target
	}
}

// Pos returns the current position.
func (m *RoadNetwork) Pos() geom.Point { return m.pos }

// SetFinder replaces the host's route planner. A PathFinder is per-query
// scratch state that is not safe for concurrent use, so a simulator that
// advances hosts on several goroutines assigns each shard its own finder.
// The shortest paths a finder returns are a pure function of the graph, so
// the host's trajectory does not depend on which finder it holds. A nil
// finder is ignored.
func (m *RoadNetwork) SetFinder(f *spatialnet.PathFinder) {
	if f != nil {
		m.finder = f
	}
}

// Advance moves the host by dt seconds and returns the new position.
func (m *RoadNetwork) Advance(dt float64) geom.Point {
	for dt > 0 {
		if m.pause > 0 {
			if m.pause >= dt {
				m.pause -= dt
				return m.pos
			}
			dt -= m.pause
			m.pause = 0
		}
		if len(m.path) < 2 {
			m.pickDestination()
			if len(m.path) < 2 {
				return m.pos // isolated node: nowhere to go
			}
		}
		remaining := m.segLen - m.along
		step := m.segSpeed * dt
		from, to := m.path[m.seg], m.path[m.seg+1]
		if step < remaining {
			m.along += step
			m.pos = m.graph.Loc(from).Lerp(m.graph.Loc(to), m.along/m.segLen)
			return m.pos
		}
		// Finish the segment.
		dt -= remaining / m.segSpeed
		m.pos = m.graph.Loc(to)
		m.at = to
		m.along = 0
		m.seg++
		if m.seg >= len(m.path)-1 {
			// Destination reached: pause, then replan.
			m.path = nil
			m.seg = 0
			if m.maxPause > 0 {
				m.pause = m.rng.Float64() * m.maxPause
			}
		} else {
			m.enterSegment()
		}
	}
	return m.pos
}
