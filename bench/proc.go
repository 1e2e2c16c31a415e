package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// The `proc` layer: a process seen from /proc. Linux only, like the rest of
// the harness's process handling.

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat. It is
// 100 on every Linux ABI Go supports.
const clockTick = 100

// cpuSeconds returns the user+system CPU time a process has consumed
// (pid 0 = this process).
func cpuSeconds(pid int) (float64, error) {
	blob, err := os.ReadFile(procPath(pid, "stat"))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted from
	// the closing parenthesis.
	s := string(blob)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc: malformed stat line")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("proc: short stat line")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64) // field 14
	stime, err2 := strconv.ParseInt(f[12], 10, 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc: unparsable cpu times")
	}
	return float64(utime+stime) / clockTick, nil
}

// peakRSSMB returns a process's resident-set high-water mark (VmHWM).
func peakRSSMB(pid int) (float64, error) {
	blob, err := os.ReadFile(procPath(pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("proc: no VmHWM in status")
}

func procPath(pid int, file string) string {
	if pid == 0 {
		return "/proc/self/" + file
	}
	return "/proc/" + strconv.Itoa(pid) + "/" + file
}
