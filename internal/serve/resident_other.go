//go:build !linux

package serve

// readResident reads the resident-memory fields from /proc on Linux
// (resident_linux.go); elsewhere they stay 0.
func readResident(*Stats) {}
