//go:build !linux

package serve

// readCPU reads the CPU-time fields with getrusage on Linux (cpu_linux.go);
// elsewhere they stay 0.
func readCPU(*Stats) {}
