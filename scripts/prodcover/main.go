// Command prodcover turns `go tool covdata func` output for the binaries
// (standard input) into the record scripts/prodcover.sh writes: one line per
// zero-hit function, `file Func disposition -- callers`, where callers are
// the non-production files (tests, test-support packages, senn.go,
// examples/, bench/) whose type-checked code uses the function. It is facade
// when senn.go or examples/ uses it or the examples' run (EXAMPLES, covdata
// func output) reaches it, and bench-pinned when bench/ uses it; otherwise
// the disposition is carried over from RECORD (facade or bench-pinned
// through another function, referee, `defensive TestName`), else dead.
//
//	go tool covdata func -i=DIR | go run ./scripts/prodcover RECORD EXAMPLES
package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

// funcs reads covdata func lines ("repro/file.go:line:  Func  pct") and
// returns the functions at zero hits (or above), keyed "file.go:line".
func funcs(r io.Reader, zero bool) map[string]string {
	out := map[string]string{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 3 && (f[2] == "0.0%") == zero && !strings.Contains(f[0], "test/") {
			out[strings.TrimSuffix(strings.TrimPrefix(f[0], "repro/"), ":")] = strings.ReplaceAll(f[1], "*", "")
		}
	}
	check(sc.Err())
	return out
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: go tool covdata func -i=DIR | prodcover RECORD EXAMPLES")
		os.Exit(2)
	}
	zero := funcs(os.Stdin, true)
	ex, err := os.Open(os.Args[2])
	check(err)
	examples := funcs(ex, false)
	callers := findCallers(zero)
	carried := map[string]string{}
	if b, err := os.ReadFile(os.Args[1]); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			head, _, _ := strings.Cut(line, " --")
			if f := strings.Fields(head); len(f) >= 3 && !strings.HasPrefix(line, "#") {
				carried[f[0]+" "+f[1]] = strings.Join(f[2:], " ")
			}
		}
	}
	keys := make([]string, 0, len(zero))
	for key := range zero {
		keys = append(keys, key)
	}
	slices.SortFunc(keys, func(a, b string) int { return strings.Compare(padLine(a), padLine(b)) })
	fmt.Println("# Production functions no workload of scripts/prodcover.sh runs.")
	fmt.Println("# file Func disposition -- non-production callers (docs_test.go checks every line)")
	fmt.Println("# Timing-dependent and defensive: Server.relayExpired (a probe reply slower than the")
	fmt.Println("# relay timeout). A probe written to a session that has just closed is a branch of")
	fmt.Println("# Server.countDown, which every relay runs.")
	for _, key := range keys {
		file, _, _ := strings.Cut(key, ":")
		entry, cs := file+" "+zero[key], callers[key]
		disp := "dead"
		switch c := carried[entry]; {
		case examples[key] != "" || slices.ContainsFunc(cs, isFacade):
			disp = "facade"
		case slices.ContainsFunc(cs, isBench):
			disp = "bench-pinned"
		case slices.ContainsFunc([]string{"facade", "bench-pinned", "referee", "defensive"}, func(d string) bool { return strings.HasPrefix(c, d) }):
			disp = c
		}
		fmt.Println(strings.TrimSpace(entry + " " + disp + " -- " + strings.Join(cs, " ")))
	}
}

// findCallers type-checks every package of the module and of bench/, tests
// included, and returns the sorted non-production files using each key.
func findCallers(zero map[string]string) map[string][]string {
	cwd, err := os.Getwd()
	check(err)
	rel := func(name string) string {
		abs, _ := filepath.Abs(name)
		r, _ := filepath.Rel(cwd, abs)
		return filepath.ToSlash(r)
	}
	fset := token.NewFileSet()
	// An external test that imports test-only exports fails to check in
	// part; every use that resolves still counts.
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil), Error: func(error) {}}
	out := map[string][]string{}
	for _, mod := range []string{".", "bench"} {
		dirs, paths := modulePackages(mod)
		for i, dir := range dirs {
			bp, err := build.ImportDir(dir, 0)
			check(err)
			for j, names := range [][]string{append(bp.GoFiles, bp.TestGoFiles...), bp.XTestGoFiles} {
				var files []*ast.File
				for _, name := range names {
					f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
					check(err)
					files = append(files, f)
				}
				info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
				_, _ = conf.Check(paths[i]+[]string{"", "_test"}[j], fset, files, info) // errors go to conf.Error
				for id, obj := range info.Uses {
					fn, ok := obj.(*types.Func)
					from := rel(fset.Position(id.Pos()).Filename)
					if !ok || !(strings.HasSuffix(from, "_test.go") || strings.Contains(from, "test/") || isFacade(from) || isBench(from)) {
						continue
					}
					decl := fset.Position(fn.Origin().Pos())
					key := fmt.Sprintf("%s:%d", rel(decl.Filename), decl.Line)
					if zero[key] != "" && !slices.Contains(out[key], from) {
						out[key] = append(out[key], from)
					}
				}
			}
		}
	}
	for _, cs := range out {
		slices.Sort(cs)
	}
	return out
}

// modulePackages lists the package directories of the module at mod and
// their import paths, as go list reports them.
func modulePackages(mod string) (dirs, paths []string) {
	out, err := exec.Command("go", "-C", mod, "list", "-f", "{{.ImportPath}} {{.Dir}}", "./...").Output()
	check(err)
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, dir, _ := strings.Cut(line, " ")
		dirs, paths = append(dirs, dir), append(paths, path)
	}
	return dirs, paths
}

func isFacade(file string) bool { return file == "senn.go" || strings.HasPrefix(file, "examples/") }
func isBench(file string) bool  { return strings.HasPrefix(file, "bench/") }

// padLine makes "file:line" keys sort by line number within a file.
func padLine(key string) string {
	file, line, _ := strings.Cut(key, ":")
	return fmt.Sprintf("%s:%08s", file, line)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "prodcover:", err)
		os.Exit(1)
	}
}
