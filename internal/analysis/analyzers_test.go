package analysis_test

import (
	"path/filepath"
	"testing"

	"repro/internal/analysis"
)

// Each analyzer is exercised against its fixture package: every want
// comment must be matched by a diagnostic and every diagnostic must match
// a want comment, so the fixtures' safe lines (collect-then-sort loops,
// //simvet:ordered, //simvet:lockio and //simvet:discard allowlist
// annotations, locks released before I/O, checked errors) double as
// negative cases.

func TestMapOrderFixture(t *testing.T) {
	diags := analysis.RunWant(t, analysis.MapOrder, analysis.Fixture(t, "maporder"))
	if len(diags) != 2 {
		t.Errorf("maporder: got %d diagnostics, want 2", len(diags))
	}
}

func TestLockSafeFixture(t *testing.T) {
	diags := analysis.RunWant(t, analysis.LockSafe, analysis.Fixture(t, "locksafe"))
	if len(diags) != 5 {
		t.Errorf("locksafe: got %d diagnostics, want 5", len(diags))
	}
}

func TestErrSinkFixture(t *testing.T) {
	diags := analysis.RunWant(t, analysis.ErrSink, analysis.Fixture(t, "errsink"))
	if len(diags) != 6 {
		t.Errorf("errsink: got %d diagnostics, want 6", len(diags))
	}
}

func TestAnalyzerScopes(t *testing.T) {
	cases := []struct {
		analyzer *analysis.Analyzer
		pkg      string
		want     bool
	}{
		{analysis.MapOrder, "repro/internal/sim", true},
		{analysis.MapOrder, "repro/internal/spatialnet", true},
		{analysis.MapOrder, "repro/internal/geom", false},
		{analysis.MapOrder, "repro/internal/simulator", false}, // prefix must respect path boundaries
		{analysis.LockSafe, "repro/internal/serve", true},
		{analysis.LockSafe, "repro/internal/client", true},
		{analysis.LockSafe, "repro/cmd/senn-serverd", true},
		{analysis.LockSafe, "repro/internal/rtree", false},
		{analysis.ErrSink, "repro/internal/wire", true},
		{analysis.ErrSink, "repro/internal/client", true},
		{analysis.ErrSink, "repro/cmd/senn-load", true},
		{analysis.ErrSink, "repro/internal/servemesh", false}, // path boundary again
		{analysis.ErrSink, "repro/internal/experiments", false},
		{&analysis.Analyzer{Name: "unscoped"}, "repro/cmd/benchjson", true}, // empty scope: everywhere
	}
	for _, c := range cases {
		if got := c.analyzer.AppliesTo(c.pkg); got != c.want {
			t.Errorf("%s.AppliesTo(%q) = %v, want %v", c.analyzer.Name, c.pkg, got, c.want)
		}
	}
}

// TestSuiteComplete pins the suite roster: the determinism analyzer and the
// two cross-function serving-stack analyzers — each has fired on a tree a
// change started from (results/SIMVET_HISTORY.txt).
func TestSuiteComplete(t *testing.T) {
	want := []string{"maporder", "locksafe", "errsink"}
	byName := map[string]bool{}
	for _, a := range analysis.Analyzers() {
		if byName[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		byName[a.Name] = true
	}
	for _, name := range want {
		if !byName[name] {
			t.Errorf("analyzer %q missing from Analyzers()", name)
		}
	}
	if len(byName) != len(want) {
		t.Errorf("suite has %d analyzers, want %d", len(byName), len(want))
	}
}

// TestRepoClean runs the full suite over the whole module, mirroring the CI
// `go run ./cmd/simvet ./...` gate: the production tree must stay free of
// determinism-lint findings. Skipped under -short (it type-checks the whole
// module from source).
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	dirs, importPaths, err := analysis.ModulePackages(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) < 10 {
		t.Fatalf("module walk found only %d packages; walker is broken", len(dirs))
	}
	loader := analysis.NewLoader()
	for i, dir := range dirs {
		pkg, err := loader.Load(dir, importPaths[i])
		if err != nil {
			t.Fatalf("load %s: %v", importPaths[i], err)
		}
		if pkg == nil {
			continue
		}
		for _, a := range analysis.Analyzers() {
			if !a.AppliesTo(pkg.ImportPath) {
				continue
			}
			diags, err := analysis.Run(a, pkg)
			if err != nil {
				t.Fatalf("%s on %s: %v", a.Name, pkg.ImportPath, err)
			}
			for _, d := range diags {
				t.Errorf("%s", d)
			}
		}
	}
}
