package serve

import (
	"bufio"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
)

// fdtableChildEnv carries the soft RLIMIT_NOFILE a child of the test binary
// runs TestReserveDescriptors' checks under ("inherited" keeps the limit it
// started with).
const fdtableChildEnv = "SERVE_FDTABLE_CHILD_LIMIT"

// TestReserveDescriptors checks the reservation in fresh children of the
// test binary: setrlimit is process-wide, a fresh process starts from the
// kernel's smallest table, and no other test's sockets come and go in the
// descriptor count.
func TestReserveDescriptors(t *testing.T) {
	if lim := os.Getenv(fdtableChildEnv); lim != "" {
		reserveDescriptorsChild(t, lim)
		return
	}
	for _, lim := range []string{"inherited", "100"} {
		t.Run("limit="+lim, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-test.run=^TestReserveDescriptors$", "-test.v")
			cmd.Env = append(os.Environ(), fdtableChildEnv+"="+lim)
			out, err := cmd.CombinedOutput()
			if err != nil || !strings.Contains(string(out), "--- PASS: TestReserveDescriptors") {
				t.Fatalf("child with limit %s: %v\n%s", lim, err, out)
			}
			t.Logf("%s", out)
		})
	}
}

func reserveDescriptorsChild(t *testing.T, lim string) {
	var rl syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &rl); err != nil {
		t.Fatal(err)
	}
	if lim != "inherited" {
		n, err := strconv.ParseUint(lim, 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		rl.Cur = n
		if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &rl); err != nil {
			t.Fatal(err)
		}
	}
	want := int(min(rl.Cur, maxReservedSlots))

	before, open := fdTableSize(t), openDescriptors(t)
	slots, err := ReserveDescriptors()
	if err != nil {
		t.Fatalf("ReserveDescriptors at soft limit %d: %v", rl.Cur, err)
	}
	after := fdTableSize(t)
	t.Logf("soft limit %d: FDSize %d -> %d, %d slots reserved", rl.Cur, before, after, slots)
	if slots != want {
		t.Errorf("reserved %d slots, want min(soft limit, %d) = %d", slots, maxReservedSlots, want)
	}
	// The kernel rounds a table up to 128 times a power of two.
	if after < want {
		t.Errorf("FDSize %d after the reservation, want >= %d", after, want)
	}
	if n := openDescriptors(t); n != open {
		t.Errorf("%d descriptors open after the reservation, %d before", n, open)
	}

	// A descriptor parked in the limit's last slot is never replaced. When
	// that slot is the one the reservation asks for, every slot from there
	// up is taken and the call reports EMFILE instead of failing hard.
	f, err := os.Create(filepath.Join(t.TempDir(), "parked"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	last := int(rl.Cur) - 1
	if err := syscall.Dup3(int(f.Fd()), last, syscall.O_CLOEXEC); err != nil {
		t.Fatalf("park a descriptor at %d: %v", last, err)
	}
	defer syscall.Close(last)
	var st0, st1 syscall.Stat_t
	if err := syscall.Fstat(last, &st0); err != nil {
		t.Fatal(err)
	}
	open = openDescriptors(t)
	slots, err = ReserveDescriptors()
	if last == want-1 {
		if !errors.Is(err, syscall.EMFILE) || slots != 0 {
			t.Errorf("with slot %d taken: %d slots, err %v; want 0 slots and EMFILE", last, slots, err)
		}
	} else if err != nil || slots != want {
		t.Errorf("with slot %d taken: %d slots, err %v; want %d slots", last, slots, err, want)
	}
	if err := syscall.Fstat(last, &st1); err != nil {
		t.Fatalf("parked descriptor %d: %v", last, err)
	}
	if st0.Dev != st1.Dev || st0.Ino != st1.Ino {
		t.Errorf("parked descriptor %d names device %d inode %d, was %d/%d", last, st1.Dev, st1.Ino, st0.Dev, st0.Ino)
	}
	if n := openDescriptors(t); n != open {
		t.Errorf("%d descriptors open after the failed reservation, %d before", n, open)
	}
}

// fdTableSize reads the process's descriptor table size (FDSize) from
// /proc/self/status.
func fdTableSize(t *testing.T) int {
	t.Helper()
	f, err := os.Open("/proc/self/status")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "FDSize:"); ok {
			n, err := strconv.Atoi(strings.TrimSpace(v))
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatal("no FDSize line in /proc/self/status")
	return 0
}

// openDescriptors counts the entries of /proc/self/fd (the directory's own
// descriptor among them, the same on every call).
func openDescriptors(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return len(ents)
}
