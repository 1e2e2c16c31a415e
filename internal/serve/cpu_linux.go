package serve

import "syscall"

// readCPU fills the CPU-time fields of st from getrusage(RUSAGE_SELF): one
// system call, no allocation. A refused call leaves them 0.
func readCPU(st *Stats) {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return
	}
	st.CPUUserNs = ru.Utime.Nano()
	st.CPUSysNs = ru.Stime.Nano()
}
