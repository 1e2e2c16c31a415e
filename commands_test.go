package senn

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCommandPathsOutsideTheRecord runs the binaries on the inputs none of
// scripts/prodcover.sh's workloads supply — each command's error exits
// (senn-sim's unknown -area and a duration scale that is not positive among
// them) — which results/PRODCOVER.txt lists as defensive with this test's
// name.
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
		{[]string{"experiments", "-fig", "fig11", "-scale", "-1"}, true, "experiments: run 0 (point 0, repeat 0): sim: Duration must be positive and finite, got -3600"},
		{[]string{"senn-sim", "-region", "nowhere"}, true, `senn-sim: unknown region "nowhere"`},
		{[]string{"senn-sim", "-area", "30"}, true, `senn-sim: unknown area "30" (want 2mi or 30mi)`},
		{[]string{"senn-sim", "-scale", "-1"}, true, "senn-sim: sim: Duration must be positive and finite, got -3600"},
		{[]string{"senn-serverd", "-store", filepath.Join(bin, "missing.senp")}, true, "senn-serverd: serve: open"},
	}
	for _, tc := range cases {
		out, err := exec.Command(filepath.Join(bin, tc.args[0]), tc.args[1:]...).CombinedOutput()
		if failed := err != nil; failed != tc.fails || !strings.Contains(string(out), tc.wantText) {
			t.Errorf("%s: err %v, output:\n%s\nwant failure %v and %q", strings.Join(tc.args, " "), err, out, tc.fails, tc.wantText)
		}
	}
}

// senn-serverd answers its few HTTP routes itself (internal/serve/admit.go)
// and links none of net/http's server, client, TLS or profiler code, which
// was most of its executable and of its resident floor (DESIGN §16), nor the
// crypto/rand and crypto/sha1 a WebSocket handshake needed, which brought 27
// more packages of FIPS DRBG, AES-GCM, SHA-2/3 and math/big with them. One
// stray import anywhere under it brings all of it back, so the link set is
// fenced: a failure names the banned package and what imports it.
// encoding/base64 stays linked: encoding/json imports it.
func TestServerdLinksNoHTTPStack(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "-f", "{{.ImportPath}} {{join .Imports \" \"}}", "./cmd/senn-serverd").CombinedOutput()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, out)
	}
	banned := map[string][]string{
		"net/http": nil, "crypto/tls": nil, "net/http/pprof": nil, "runtime/pprof": nil,
		"crypto/rand": nil, "crypto/sha1": nil,
	}
	linked := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		pkg, imports, _ := strings.Cut(line, " ")
		linked[pkg] = true
		for _, imp := range strings.Fields(imports) {
			if _, ok := banned[imp]; ok {
				banned[imp] = append(banned[imp], pkg)
			}
		}
	}
	if len(linked) == 0 {
		t.Fatal("go list named no packages")
	}
	for pkg, importers := range banned {
		if linked[pkg] {
			t.Errorf("senn-serverd links %s, imported by %s", pkg, strings.Join(importers, ", "))
		}
	}
}
