//go:build !linux

package serve

// ReserveDescriptors grows the descriptor table ahead of need on Linux
// (fdtable_linux.go); elsewhere it does nothing and reports no slots.
func ReserveDescriptors() (slots int, err error) { return 0, nil }
