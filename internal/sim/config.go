// Package sim implements the paper's simulator (§4): a mobile host module
// that generates movement and query launch patterns for a population of
// hosts, and a server module that processes the spatial queries reaching the
// remote database and accounts for its I/O load.
//
// Each query runs the full SENN pipeline: the querying host gathers the
// cached results of every peer within its wireless transmission range
// (including its own cache), verifies them with kNN_single and kNN_multiple,
// and only contacts the R*-tree-backed server for the uncertified remainder,
// forwarding the §3.3 pruning bounds. The metrics the paper's figures plot —
// the share of queries resolved by a single peer, by multiple peers, and by
// the server (SQRR), plus the server page access counts (PAR) — are
// collected after a fixed warm-up so measurements reflect steady state.
package sim

import (
	"fmt"

	"repro/internal/geom"
)

// Mode selects the movement generator (§4.1).
type Mode int

const (
	// ModeRoadNetwork moves hosts along a generated road network at
	// class-limited speeds.
	ModeRoadNetwork Mode = iota
	// ModeFreeMovement moves hosts obstacle-free with the random waypoint
	// model at a fixed velocity.
	ModeFreeMovement
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeRoadNetwork:
		return "road-network"
	case ModeFreeMovement:
		return "free-movement"
	default:
		return "unknown"
	}
}

// The simulation protocol's fixed values. The paper records results only
// "after the system reached steady state" (§4): the first quarter of every
// run is the warm-up, excluded from Metrics. Movement advances in 1 s steps.
const (
	warmupFraction = 0.25
	stepSeconds    = 1.0
)

// Fanout is the branching factor of every server index (§4.4).
const Fanout = 30

// Config holds every simulation parameter of Table 2.
type Config struct {
	// AreaWidth and AreaHeight of the simulated region in meters.
	AreaWidth, AreaHeight float64
	// NumPOIs is the number of points of interest (POI Number).
	NumPOIs int
	// NumHosts is the number of mobile hosts (MH Number).
	NumHosts int
	// CacheSize is the per-host NN cache capacity (C Size).
	CacheSize int
	// MovePercentage is the fraction of hosts that move (M Percentage),
	// in [0,1].
	MovePercentage float64
	// Velocity is the host target velocity in m/s (M Velocity).
	Velocity float64
	// QueriesPerMinute is the mean query arrival rate (λ Query).
	QueriesPerMinute float64
	// TxRange is the wireless transmission range in meters (Tx Range).
	TxRange float64
	// KMin and KMax bound the per-query neighbor count; k is drawn
	// uniformly from [KMin, KMax] (the paper randomizes k around λ kNN).
	KMin, KMax int
	// Duration is the simulated time in seconds (T execution).
	Duration float64
	// Mode selects road-network or free movement.
	Mode Mode
	// MaxPause is the random waypoint pause ceiling in seconds.
	MaxPause float64
	// RoadSpacing is the grid spacing of the generated road network in
	// meters. Default: area width / 20, clamped to [100, 500].
	RoadSpacing float64
	// TripRadius bounds destination choice in both movement modes (0 =
	// automatic: a quarter of the area diagonal, capped at 2.5 km and
	// floored at 4 × RoadSpacing; see Validate).
	TripRadius float64
	// AcceptUncertain lets hosts accept full-but-uncertain heaps without
	// querying the server (Algorithm 1 line 15). The paper's experiments
	// keep this off.
	AcceptUncertain bool
	// SeriesWindow, when positive, records a query-resolution time series
	// with the given window length in seconds (including the warm-up
	// phase), retrievable via World.Series after Run.
	SeriesWindow float64
	// Workers is the number of goroutines the movement phase of World.Run
	// shards the host population across — the middle level of the
	// three-level parallelism model (DESIGN.md §8); the outer level fans
	// whole simulations via experiments.RunParallel. 0 or 1 advances hosts
	// on the coordinating goroutine. New builds the population on as many
	// (World.placeHosts). Every worker count produces bit-identical
	// simulation output; only wall-clock time changes.
	Workers int
	// QueryWorkers is the number of goroutines the resolve phase of each
	// step's query batch fans across — the innermost level of the worker
	// budget (sweep × movement × query). 0 inherits Workers. Every worker
	// count produces bit-identical simulation output; only wall-clock time
	// changes (see the plan/resolve/commit pipeline in queryengine.go).
	QueryWorkers int
	// Seed makes runs reproducible.
	Seed int64
}

// Validate checks the configuration and fills defaults, returning the
// effective config.
func (c Config) Validate() (Config, error) {
	if c.AreaWidth <= 0 || c.AreaHeight <= 0 {
		return c, fmt.Errorf("sim: area must be positive, got %v x %v", c.AreaWidth, c.AreaHeight)
	}
	if c.NumPOIs <= 0 {
		return c, fmt.Errorf("sim: NumPOIs must be positive")
	}
	if c.NumHosts <= 0 {
		return c, fmt.Errorf("sim: NumHosts must be positive")
	}
	if c.CacheSize <= 0 {
		return c, fmt.Errorf("sim: CacheSize must be positive")
	}
	if c.MovePercentage < 0 || c.MovePercentage > 1 {
		return c, fmt.Errorf("sim: MovePercentage must be in [0,1]")
	}
	if c.Velocity <= 0 {
		return c, fmt.Errorf("sim: Velocity must be positive")
	}
	if c.QueriesPerMinute <= 0 {
		return c, fmt.Errorf("sim: QueriesPerMinute must be positive")
	}
	if c.TxRange < 0 {
		return c, fmt.Errorf("sim: TxRange must be non-negative")
	}
	if c.KMin <= 0 || c.KMax < c.KMin {
		return c, fmt.Errorf("sim: need 0 < KMin <= KMax, got [%d, %d]", c.KMin, c.KMax)
	}
	if c.Duration <= 0 {
		return c, fmt.Errorf("sim: Duration must be positive")
	}
	if c.RoadSpacing <= 0 {
		c.RoadSpacing = c.AreaWidth / 20
		if c.RoadSpacing < 100 {
			c.RoadSpacing = 100
		}
		if c.RoadSpacing > 500 {
			c.RoadSpacing = 500
		}
	}
	if c.TripRadius <= 0 {
		// Bound trips so route planning stays local: unbounded waypoint
		// destinations make every plan a near-whole-graph Dijkstra in the
		// 30x30 mi region. The bound applies to every figure: 1.14 km in the
		// 2x2 mi region (diagonal/4, above its 644 m floor) and 2.5 km in
		// the 30x30 mi one, where the paper's destinations lie anywhere in
		// the region. Whether this leaves the encounter statistics the
		// queries depend on unchanged has not been measured (DESIGN §4 D6).
		c.TripRadius = geom.Pt(c.AreaWidth, c.AreaHeight).Norm() / 4
		if c.TripRadius > 2500 {
			c.TripRadius = 2500
		}
		if min := 4 * c.RoadSpacing; c.TripRadius < min {
			c.TripRadius = min
		}
	}
	if c.Workers < 0 {
		return c, fmt.Errorf("sim: Workers must be >= 0, got %d", c.Workers)
	}
	if c.QueryWorkers < 0 {
		return c, fmt.Errorf("sim: QueryWorkers must be >= 0, got %d", c.QueryWorkers)
	}
	if c.QueryWorkers == 0 {
		c.QueryWorkers = c.Workers
	}
	return c, nil
}

// Bounds returns the simulated area rectangle.
func (c Config) Bounds() geom.Rect {
	return geom.NewRect(geom.Pt(0, 0), geom.Pt(c.AreaWidth, c.AreaHeight))
}
