// Package experiments encodes the paper's evaluation (§4): the Los Angeles
// County, Riverside County, and Synthetic Suburbia parameter sets of Tables
// 3 and 4, and a sweep runner for every figure (9–17). Each figure function
// returns plain data series so the cmd/experiments binary, the benchmarks in
// bench_test.go, and the tests can all share one implementation.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// Unit conversions.
const (
	// Mile in meters.
	Mile = 1609.344
	// MPH in m/s.
	MPH = 0.44704
)

// Region identifies one of the three parameter sets.
type Region int

const (
	// LosAngeles is the dense urban parameter set.
	LosAngeles Region = iota
	// Suburbia is the blended synthetic suburban parameter set.
	Suburbia
	// Riverside is the sparse rural parameter set.
	Riverside
)

// String implements fmt.Stringer.
func (r Region) String() string {
	switch r {
	case LosAngeles:
		return "Los Angeles County"
	case Suburbia:
		return "Synthetic Suburbia"
	case Riverside:
		return "Riverside County"
	default:
		return "unknown"
	}
}

// Regions lists the three parameter sets in the order the paper's figures
// show them (a: LA, b: Suburbia, c: Riverside).
var Regions = []Region{LosAngeles, Suburbia, Riverside}

// ParseRegion resolves the command-line spellings of the three parameter
// sets.
func ParseRegion(s string) (Region, error) {
	switch strings.ToLower(s) {
	case "la", "losangeles", "los-angeles":
		return LosAngeles, nil
	case "suburbia", "synthetic", "syn":
		return Suburbia, nil
	case "riverside", "rv":
		return Riverside, nil
	}
	return 0, fmt.Errorf("unknown region %q (want la, suburbia, or riverside)", s)
}

// Area identifies one of the paper's two simulation region sizes.
type Area int

const (
	// Area2mi is the 2 miles by 2 miles region of Table 3.
	Area2mi Area = iota
	// Area30mi is the 30 miles by 30 miles region of Table 4.
	Area30mi
)

// String implements fmt.Stringer.
func (a Area) String() string {
	switch a {
	case Area2mi:
		return "2x2 mi"
	case Area30mi:
		return "30x30 mi"
	default:
		return "unknown"
	}
}

// Side returns the region side length in meters.
func (a Area) Side() float64 {
	if a == Area30mi {
		return 30 * Mile
	}
	return 2 * Mile
}

// BaseConfig returns the simulation configuration of Table 3 (2×2 mi) or
// Table 4 (30×30 mi) for the given region, in SI units. The paper draws k
// randomly around λ_kNN; the returned KMin/KMax spread uniformly over
// [1, 2λ−1] (2×2) and [λ−2, λ+2] clipped per the Figure 15/16 sweeps.
//
// Durations are the paper's (1 h and 5 h). Experiment runners scale them
// down (see ScaleDuration) so the full figure suite regenerates quickly; the
// cmd/experiments binary exposes a flag to restore the full length.
func BaseConfig(r Region, a Area) sim.Config {
	cfg := sim.Config{
		AreaWidth:      a.Side(),
		AreaHeight:     a.Side(),
		MovePercentage: 0.80,
		Velocity:       30 * MPH,
		TxRange:        200,
		Mode:           sim.ModeRoadNetwork,
		MaxPause:       30,
		Seed:           1,
	}
	if a == Area2mi {
		cfg.CacheSize = 10
		cfg.Duration = 3600       // 1 hour
		cfg.KMin, cfg.KMax = 1, 5 // mean 3 = λ_kNN (Table 3)
		switch r {
		case LosAngeles:
			cfg.NumPOIs = 16
			cfg.NumHosts = 463
			cfg.QueriesPerMinute = 23
		case Riverside:
			cfg.NumPOIs = 5
			cfg.NumHosts = 50
			cfg.QueriesPerMinute = 2.5
		default: // Suburbia
			cfg.NumPOIs = 11
			cfg.NumHosts = 257
			cfg.QueriesPerMinute = 13
		}
		return cfg
	}
	cfg.CacheSize = 20
	cfg.Duration = 5 * 3600   // 5 hours
	cfg.KMin, cfg.KMax = 3, 7 // mean 5 = λ_kNN (Table 4)
	switch r {
	case LosAngeles:
		cfg.NumPOIs = 4050
		cfg.NumHosts = 121500
		cfg.QueriesPerMinute = 8100
	case Riverside:
		cfg.NumPOIs = 2160
		cfg.NumHosts = 11700
		cfg.QueriesPerMinute = 780
	default: // Suburbia
		cfg.NumPOIs = 3105
		cfg.NumHosts = 66600
		cfg.QueriesPerMinute = 4440
	}
	return cfg
}

// ScaleDuration shrinks a configuration's simulated time by the given factor
// (>= 1). The warm-up stays the first quarter of the run, so steady-state
// measurement still applies; the query rate is unchanged, only the observation window
// shortens. Scale 1 reproduces the paper's full durations.
func ScaleDuration(cfg sim.Config, scale float64) sim.Config {
	if scale > 1 {
		cfg.Duration /= scale
		if cfg.Duration < 120 {
			cfg.Duration = 120
		}
	}
	return cfg
}

// ScaleHosts divides both the host count and the query rate by the given
// factor, preserving the per-host query rate but NOT the density. It exists
// for quick smoke runs only; figure runners keep densities faithful and
// scale duration instead.
func ScaleHosts(cfg sim.Config, scale float64) sim.Config {
	if scale > 1 {
		cfg.NumHosts = int(float64(cfg.NumHosts) / scale)
		if cfg.NumHosts < 1 {
			cfg.NumHosts = 1
		}
		cfg.QueriesPerMinute /= scale
		if cfg.QueriesPerMinute < 0.5 {
			cfg.QueriesPerMinute = 0.5
		}
	}
	return cfg
}
