// Package racebuild tells tests whether they run under the race detector,
// whose instrumentation allocates where the plain build does not and makes
// sync.Pool drop a share of what it is handed: allocation-count and
// memory-footprint assertions skip themselves under it.
package racebuild

import "runtime/debug"

// Enabled reports whether the binary was built with -race.
func Enabled() bool {
	info, _ := debug.ReadBuildInfo()
	if info != nil {
		for _, s := range info.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}
