package senn

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCommandPathsOutsideTheRecord runs the binaries on the inputs and flags
// none of scripts/prodcover.sh's workloads supply — each command's error
// exit, experiments -chart and senn-load -sweep — which
// results/PRODCOVER.txt lists as defensive with this test's name.
func TestCommandPathsOutsideTheRecord(t *testing.T) {
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin, "./cmd/experiments", "./cmd/senn-sim", "./cmd/senn-serverd", "./cmd/senn-load")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cases := []struct {
		args     []string
		fails    bool
		wantText string
	}{
		{[]string{"experiments", "-fig", "nope"}, true, `experiments: unknown figure "nope"`},
		{[]string{"experiments", "-fig", "11", "-hostscale", "40", "-scale", "300", "-chart"}, false, "1=single-peer  m=multi-peer  S=server"},
		{[]string{"senn-sim", "-region", "nowhere"}, true, `senn-sim: unknown region "nowhere"`},
		{[]string{"senn-serverd", "-store", filepath.Join(bin, "missing.senp")}, true, "senn-serverd: serve: open"},
		{[]string{"senn-load", "-sweep", "0"}, true, `senn-load: bad -sweep point "0"`},
	}
	for _, tc := range cases {
		out, err := exec.Command(filepath.Join(bin, tc.args[0]), tc.args[1:]...).CombinedOutput()
		if failed := err != nil; failed != tc.fails || !strings.Contains(string(out), tc.wantText) {
			t.Errorf("%s: err %v, output:\n%s\nwant failure %v and %q", strings.Join(tc.args, " "), err, out, tc.fails, tc.wantText)
		}
	}
}
