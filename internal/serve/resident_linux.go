package serve

import (
	"os"
	"strconv"
	"strings"
)

// readResident fills the resident-memory fields of st from
// /proc/self/status, whose lines read "RssAnon:\t    3408 kB". A field the
// kernel does not report stays 0.
func readResident(st *Stats) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return
	}
	fields := map[string]*int64{"RssAnon:": &st.RSSAnonBytes, "RssFile:": &st.RSSFileBytes, "VmHWM:": &st.PeakRSSBytes}
	for _, line := range strings.Split(string(status), "\n") {
		if f := strings.Fields(line); len(f) == 3 && fields[f[0]] != nil {
			kb, _ := strconv.ParseInt(f[1], 10, 64)
			*fields[f[0]] = kb << 10
		}
	}
}
