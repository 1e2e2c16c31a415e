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

// MarshalText writes the region's name, as every results document spells
// it.
func (r Region) MarshalText() ([]byte, error) { return []byte(r.String()), nil }

// UnmarshalText reads a name MarshalText wrote.
func (r *Region) UnmarshalText(b []byte) error { return unmarshalName(Regions, b, r) }

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

// MarshalText writes the area as every results document spells it.
func (a Area) MarshalText() ([]byte, error) { return []byte(a.String()), nil }

// UnmarshalText reads an area MarshalText wrote.
func (a *Area) UnmarshalText(b []byte) error { return unmarshalName([]Area{Area2mi, Area30mi}, b, a) }

// ParseArea resolves the command-line spellings of the two areas: 2mi and
// 30mi.
func ParseArea(s string) (Area, error) {
	switch s {
	case "2mi":
		return Area2mi, nil
	case "30mi":
		return Area30mi, nil
	}
	return 0, fmt.Errorf("unknown area %q (want 2mi or 30mi)", s)
}

// unmarshalName sets *v to the one of all whose String is b.
func unmarshalName[T fmt.Stringer](all []T, b []byte, v *T) error {
	for _, c := range all {
		if c.String() == string(b) {
			*v = c
			return nil
		}
	}
	return fmt.Errorf("experiments: unknown name %q", b)
}

// Side returns the region side length in meters.
func (a Area) Side() float64 {
	if a == Area30mi {
		return 30 * Mile
	}
	return 2 * Mile
}

// DurationScale is the duration divisor a world of area a runs at when
// scale is asked for (Options.DurationScale, both commands' -scale): scale
// itself, or for 0 the area's committed scale, the one every committed
// timed results file of the area ran at: 1 at 2×2 mi (the paper's full
// hour), 10 at 30×30 mi (30 of its 5 hours).
func (a Area) DurationScale(scale float64) float64 {
	switch {
	case scale != 0:
		return scale
	case a == Area30mi:
		return 10
	}
	return 1
}

// BaseConfig returns the simulation configuration of Table 3 (2×2 mi) or
// Table 4 (30×30 mi) for the given region, in SI units. The paper draws k
// randomly around λ_kNN; the returned KMin/KMax spread uniformly over
// [1, 2λ−1] (2×2) and [λ−2, λ+2] clipped per the Figure 15/16 sweeps.
//
// Durations are the paper's (1 h and 5 h). Experiment runners divide them
// by Area.DurationScale (see ScaleDuration).
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

// ScaleDuration divides a configuration's simulated time by scale: 1
// reproduces the paper's durations, more runs shorter and a positive scale
// below 1 longer. The warm-up stays the first quarter of the run and the
// query rate is unchanged; only the observation window changes. A scale
// that is not positive and finite leaves a Duration sim.Config.Validate
// refuses.
func ScaleDuration(cfg sim.Config, scale float64) sim.Config {
	cfg.Duration /= scale
	return cfg
}

// ScaleHosts divides both the host count and the query rate by the given
// factor, preserving the per-host query rate but NOT the density. It exists
// for quick smoke runs only; figure runners keep densities faithful and
// scale duration instead.
func ScaleHosts(cfg sim.Config, scale float64) sim.Config {
	if scale > 1 {
		cfg.NumHosts = max(int(float64(cfg.NumHosts)/scale), 1)
		cfg.QueriesPerMinute = max(cfg.QueriesPerMinute/scale, 0.5)
	}
	return cfg
}
