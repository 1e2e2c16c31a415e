package analysis

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// This file is a small reimplementation of the
// golang.org/x/tools/go/analysis/analysistest contract on the standard
// library: fixture packages live under testdata/, and every line that must
// produce a diagnostic carries a trailing comment of the form
//
//	// want "regexp"
//	// want `regexp`
//	// want "first" "second"      (two diagnostics expected on the line)
//
// RunWant loads the fixture, runs the analyzer, and fails the test when a
// diagnostic has no matching want clause on its line or a want clause goes
// unmatched. Lines without a want comment must stay silent, so fixtures
// double as negative tests — in particular the //simvet:ordered,
// //simvet:lockio and //simvet:discard allowlist annotations are exercised by
// fixture lines that would be findings without them.

// TB is the subset of *testing.T the harness needs.
type TB interface {
	Helper()
	Errorf(format string, args ...any)
	Fatalf(format string, args ...any)
}

// RunWant runs a over the fixture package in dir (a directory of Go files
// under testdata) and checks its diagnostics against the fixture's want
// comments. It returns the diagnostics for additional assertions.
func RunWant(t TB, a *Analyzer, dir string) []Diagnostic {
	t.Helper()
	loader := NewLoader()
	pkg, err := loader.Load(dir, "testdata/"+filepath.Base(dir))
	if err != nil {
		t.Fatalf("load fixture %s: %v", dir, err)
	}
	if pkg == nil {
		t.Fatalf("fixture %s contains no Go files", dir)
	}
	diags, err := Run(a, pkg)
	if err != nil {
		t.Fatalf("run %s on %s: %v", a.Name, dir, err)
	}

	wants, err := parseWants(loader.Fset, pkg)
	if err != nil {
		t.Fatalf("parse want comments in %s: %v", dir, err)
	}

	matched := make([]bool, len(wants))
	for _, d := range diags {
		ok := false
		for i, w := range wants {
			if matched[i] || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("%s: unexpected diagnostic: %s", a.Name, d)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s: %s:%d: no diagnostic matched want %q",
				a.Name, w.file, w.line, w.re)
		}
	}
	return diags
}

type wantClause struct {
	file string
	line int
	re   *regexp.Regexp
}

// wantPattern pulls the quoted regexps off a want comment.
var wantPattern = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

func parseWants(fset *token.FileSet, pkg *Package) ([]wantClause, error) {
	var wants []wantClause
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				quoted := wantPattern.FindAllString(rest, -1)
				if len(quoted) == 0 {
					return nil, fmt.Errorf("%s: want comment with no quoted pattern", pos)
				}
				for _, q := range quoted {
					pat := q[1 : len(q)-1]
					if q[0] == '"' {
						pat = strings.ReplaceAll(pat, `\"`, `"`)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						return nil, fmt.Errorf("%s: bad want pattern %q: %v", pos, pat, err)
					}
					wants = append(wants, wantClause{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants, nil
}

// Fixture returns the path of a named fixture directory under testdata,
// failing the test if it does not exist.
func Fixture(t TB, elems ...string) string {
	t.Helper()
	dir := filepath.Join(append([]string{"testdata", "src"}, elems...)...)
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("fixture dir: %v", err)
	}
	return dir
}
