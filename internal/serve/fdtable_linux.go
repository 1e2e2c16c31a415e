package serve

import (
	"fmt"
	"syscall"
)

// maxReservedSlots caps the descriptor table ReserveDescriptors asks for: a
// table of 65,536 slots is 512 KB of kernel memory (8 B a slot) and holds
// far more sessions than one daemon serves, while a hard limit of a million
// would make it 8 MB.
const maxReservedSlots = 1 << 16

// ReserveDescriptors grows the process's descriptor table to the soft
// RLIMIT_NOFILE (at most maxReservedSlots) in one step and returns how many
// slots it now holds at least.
//
// Linux sizes the table by doubling (64, 128, 256, 512, …), and in a
// multi-threaded process — every Go process — each doubling waits out a full
// RCU grace period before the descriptor that needed it is handed out, so
// the accept or dial that asked for it stalls (8–31 ms each on a 2-vCPU
// host, DESIGN §16). The kernel never shrinks the table, so opening one
// descriptor at the top of the range and closing it again leaves every later
// descriptor a free slot, and only that one allocation waits. F_DUPFD (not
// dup2) takes the lowest *free* slot at or above the one asked for, so it
// can never replace an open descriptor; when every slot from there to the
// limit is taken the table is already full size and the call reports EMFILE.
//
// A failed reservation leaves the process as it was: it only means the
// table keeps growing by doubling.
func ReserveDescriptors() (slots int, err error) {
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		return 0, fmt.Errorf("getrlimit: %w", err)
	}
	top := min(lim.Cur, maxReservedSlots) - 1
	fd, err := syscall.Open("/dev/null", syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	if err != nil {
		return 0, fmt.Errorf("open /dev/null: %w", err)
	}
	//simvet:discard — /dev/null opened read-only has nothing to flush; a close error cannot mean lost data
	defer syscall.Close(fd)
	hi, _, errno := syscall.Syscall(syscall.SYS_FCNTL, uintptr(fd), syscall.F_DUPFD_CLOEXEC, uintptr(top))
	if errno != 0 {
		return 0, fmt.Errorf("fcntl(F_DUPFD_CLOEXEC, %d): %w", top, errno)
	}
	//simvet:discard — a duplicate of /dev/null opened read-only has nothing to flush
	syscall.Close(int(hi))
	return int(hi) + 1, nil
}
