// Package analysis is simvet's determinism-and-concurrency lint suite: five
// static analyzers, each of which has fired on a tree a PR started from or
// carries reviewed suppressions (results/SIMVET_HISTORY.txt). Two encode
// reproducibility invariants — ordered iteration (maporder) and exact float
// comparisons only where proven safe (floateq) — so violations are caught at
// lint time, before they reach the CI byte-diff determinism gate; three guard
// the serving stack (below). The invariants that have no analyzer here —
// per-shard RNGs, virtual step time, atomic counter discipline — belong to
// the gates DESIGN §7 names: the determinism byte diff, typed atomics under
// go test -race, and two grep lines in the CI lint job.
//
// The types here deliberately mirror golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic, pass.Reportf) but are implemented on the
// standard library alone — this module has no third-party dependencies, and
// the build environment forbids adding any. If the x/tools dependency ever
// becomes available, each analyzer's Run function ports mechanically: the
// Pass surface used here is a strict subset of the x/tools one, plus the
// Scope field (x/tools drivers express package scoping outside the
// analyzer; our driver reads it from the Analyzer itself).
//
// The v2 layer (summary.go) adds a per-package call graph with bottom-up
// function summaries — blocking behavior, loop shape, termination signals,
// error sources — shared by the cross-function analyzers: locksafe (mutex
// held across a blocking call; sync types copied by value), goleak
// (goroutine spawned with no reachable termination path) and errsink
// (discarded errors from conn/wire/pagestore operations and their
// same-package wrappers).
//
// Suppression annotations: a comment of the form
//
//	//simvet:ordered
//
// on the same line as a statement, or alone on the line immediately above
// it, marks that statement as reviewed-and-safe for the maporder analyzer
// (the iteration feeds an order-insensitive sink). A file whose comments
// contain
//
//	//simvet:exact
//
// declares that the file implements exact-arithmetic float comparisons and
// is exempt from floateq. The serving-layer analyzers add three more
// statement-level keys:
//
//	//simvet:discard  — errsink: this error is uninformative here (say why)
//	//simvet:lockio   — locksafe: this lock deliberately serializes this I/O
//	//simvet:detached — goleak: this goroutine intentionally runs to exit
//
// Annotations are deliberately narrow: each one names the analyzer class it
// silences, so a grep for "simvet:" enumerates every reviewed exception in
// the tree. A misspelled annotation is inert, and the finding it failed to
// suppress fails the lint.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one simvet check.
type Analyzer struct {
	// Name is the analyzer's short identifier, used in diagnostics and by
	// the -only driver flag.
	Name string

	// Doc describes what the analyzer reports and why it matters for the
	// simulation's determinism contract.
	Doc string

	// Scope lists import-path prefixes the driver restricts this analyzer
	// to. An empty Scope means every package. The analysistest harness
	// ignores Scope so fixtures exercise the analyzer directly.
	Scope []string

	// Run executes the check over one package and reports findings via
	// pass.Reportf.
	Run func(*Pass) error
}

// AppliesTo reports whether the driver should run a on the package with the
// given import path.
func (a *Analyzer) AppliesTo(pkgPath string) bool {
	if len(a.Scope) == 0 {
		return true
	}
	for _, prefix := range a.Scope {
		if pkgPath == prefix || strings.HasPrefix(pkgPath, prefix+"/") {
			return true
		}
	}
	return false
}

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// A Pass provides one analyzer run with a type-checked package and collects
// its diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// annotations maps file name -> source line -> the set of //simvet:
	// annotation keys present on that line.
	annotations map[string]map[int][]string

	diagnostics []Diagnostic
}

// NewPass builds a Pass for a over the loaded package, indexing its
// //simvet: annotations.
func NewPass(a *Analyzer, pkg *Package) *Pass {
	p := &Pass{
		Analyzer:    a,
		Fset:        pkg.Fset,
		Files:       pkg.Files,
		Pkg:         pkg.Types,
		TypesInfo:   pkg.Info,
		annotations: make(map[string]map[int][]string),
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				key, ok := annotationKey(c.Text)
				if !ok {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				lines := p.annotations[pos.Filename]
				if lines == nil {
					lines = make(map[int][]string)
					p.annotations[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], key)
			}
		}
	}
	return p
}

// annotationKey extracts the key of a //simvet:<key> comment. Trailing
// prose after the key ("//simvet:ordered — summing is commutative") is
// allowed and encouraged.
func annotationKey(comment string) (string, bool) {
	text := strings.TrimPrefix(comment, "//")
	if !strings.HasPrefix(text, "simvet:") {
		return "", false
	}
	key := strings.TrimPrefix(text, "simvet:")
	if i := strings.IndexFunc(key, func(r rune) bool {
		return !('a' <= r && r <= 'z')
	}); i >= 0 {
		key = key[:i]
	}
	return key, key != ""
}

// Annotated reports whether the statement at pos carries the given
// //simvet:<key> annotation — either trailing on the same line or alone on
// the line directly above.
func (p *Pass) Annotated(pos token.Pos, key string) bool {
	position := p.Fset.Position(pos)
	lines := p.annotations[position.Filename]
	if lines == nil {
		return false
	}
	for _, line := range []int{position.Line, position.Line - 1} {
		for _, k := range lines[line] {
			if k == key {
				return true
			}
		}
	}
	return false
}

// FileExempt reports whether the file containing pos carries a
// //simvet:<key> annotation anywhere (file-level opt-out, used by floateq
// for exact-arithmetic files).
func (p *Pass) FileExempt(pos token.Pos, key string) bool {
	filename := p.Fset.Position(pos).Filename
	for _, keys := range p.annotations[filename] {
		for _, k := range keys {
			if k == key {
				return true
			}
		}
	}
	return false
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diagnostics = append(p.diagnostics, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostics returns the findings reported so far, sorted by position.
func (p *Pass) Diagnostics() []Diagnostic {
	ds := append([]Diagnostic(nil), p.diagnostics...)
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i].Pos, ds[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return ds
}

// Run executes a over the loaded package and returns its sorted findings.
func Run(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	pass := NewPass(a, pkg)
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, err)
	}
	return pass.Diagnostics(), nil
}

// Analyzers lists the full simvet suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		MapOrder,
		FloatEq,
		LockSafe,
		GoLeak,
		ErrSink,
	}
}

// DeterministicPackages are the import-path prefixes whose execution must
// be bit-identical for any worker count: the simulator and everything on
// its query path. maporder confines itself to these.
var DeterministicPackages = []string{
	"repro/internal/sim",
	"repro/internal/experiments",
	"repro/internal/core",
	"repro/internal/client",
	"repro/internal/rtree",
	"repro/internal/spatialnet",
	"repro/internal/pagestore",
	"repro/internal/grid",
}

// ServingPackages are the import-path prefixes the cross-function
// concurrency analyzers (locksafe, goleak, errsink) run over: the network
// serving stack, the simulator it drives, the wire protocol, and the
// command binaries that tie them together. These are the packages where a
// wedged peer or a leaked goroutine is a cross-connection outage rather
// than a local bug.
var ServingPackages = []string{
	"repro/internal/serve",
	"repro/internal/sim",
	"repro/internal/client",
	"repro/internal/wire",
	"repro/cmd",
}
