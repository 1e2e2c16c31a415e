// Command simvet runs the repository's determinism-and-concurrency lint
// suite (internal/analysis) over the module. maporder and floateq are the
// static half of the reproducibility gate: the CI determinism job
// byte-diffs simulator output at run time; simvet rejects two bug classes
// that would make that diff fail (or make it pass by luck) before they
// compile into the tree. The other three ride on a per-package call graph
// with bottom-up function summaries and guard the serving stack: locksafe
// (a mutex held across a blocking call; sync types copied by value), goleak
// (a goroutine spawned with no reachable termination path), errsink (a
// discarded error from conn/wire/pagestore operations or their same-package
// wrappers). Every analyzer in the suite has a record
// (results/SIMVET_HISTORY.txt); the invariants whose analyzers never fired
// are held by the gates DESIGN §7 names.
//
// Usage:
//
//	go run ./cmd/simvet ./...
//	go run ./cmd/simvet -only maporder ./internal/sim
//
// Patterns are package directories; a trailing /... walks recursively,
// skipping testdata and vendor like the go tool. With no patterns, ./...
// is assumed. Exit status is 1 when any analyzer reports a finding, 2 on
// usage or load errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "print the analyzers and their scopes, then exit")
	flag.Parse()

	analyzers := analysis.Analyzers()
	if *list {
		for _, a := range analyzers {
			scope := "all packages"
			if len(a.Scope) > 0 {
				scope = strings.Join(a.Scope, ", ")
			}
			fmt.Printf("%-14s %s\n%14s scope: %s\n", a.Name+":", a.Doc, "", scope)
		}
		return
	}
	if *only != "" {
		byName := make(map[string]*analysis.Analyzer)
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fatalf("unknown analyzer %q", name)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirs, importPaths, err := resolve(patterns)
	if err != nil {
		fatalf("%v", err)
	}

	loader := analysis.NewLoader()
	findings := 0
	for i, dir := range dirs {
		pkg, err := loader.Load(dir, importPaths[i])
		if err != nil {
			fatalf("%v", err)
		}
		if pkg == nil {
			continue
		}
		for _, a := range analyzers {
			if !a.AppliesTo(pkg.ImportPath) {
				continue
			}
			diags, err := analysis.Run(a, pkg)
			if err != nil {
				fatalf("%v", err)
			}
			for _, d := range diags {
				fmt.Println(d)
				findings++
			}
		}
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "simvet: %d finding(s)\n", findings)
		os.Exit(1)
	}
}

// resolve expands the command-line patterns into package directories and
// import paths inside the enclosing module.
func resolve(patterns []string) (dirs, importPaths []string, err error) {
	cwd, err := os.Getwd()
	if err != nil {
		return nil, nil, err
	}
	root, modPath, err := findModule(cwd)
	if err != nil {
		return nil, nil, err
	}
	seen := make(map[string]bool)
	add := func(ds, ips []string) {
		for i, d := range ds {
			if !seen[d] {
				seen[d] = true
				dirs = append(dirs, d)
				importPaths = append(importPaths, ips[i])
			}
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			base := filepath.Join(cwd, rest)
			ds, ips, err := analysis.ModulePackages(root)
			if err != nil {
				return nil, nil, err
			}
			// ModulePackages walks the whole module; keep the subtree the
			// pattern names.
			var fds, fips []string
			for i, d := range ds {
				if d == base || strings.HasPrefix(d, base+string(filepath.Separator)) {
					fds = append(fds, d)
					fips = append(fips, ips[i])
				}
			}
			add(fds, fips)
			continue
		}
		dir, err := filepath.Abs(filepath.Join(cwd, pat))
		if err != nil {
			return nil, nil, err
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, nil, fmt.Errorf("package %s is outside module %s", pat, modPath)
		}
		ip := modPath
		if rel != "." {
			ip = modPath + "/" + filepath.ToSlash(rel)
		}
		add([]string{dir}, []string{ip})
	}
	return dirs, importPaths, nil
}

// findModule locates the enclosing go.mod and returns the module root
// directory and module path.
func findModule(dir string) (root, modPath string, err error) {
	for {
		gomod := filepath.Join(dir, "go.mod")
		if data, err := os.ReadFile(gomod); err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("%s: no module declaration", gomod)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "simvet: "+format+"\n", args...)
	os.Exit(2)
}
