package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is the cross-function core the serving-stack analyzers (locksafe,
// errsink) share: a per-package call graph plus a summary of each function's
// blocking and error behavior, computed bottom-up over the same AST+types
// representation maporder uses. Summaries start from direct facts (blocking
// operations performed, error sources called, static callees) and close over
// the call graph with a worklist fixpoint, so an analyzer asking "may this
// call block?" or "is this error worth checking?" sees through any depth of
// same-package calls. Cross-package calls are opaque except for the
// explicitly modeled externals (net.Conn-shaped I/O, sync primitives, io
// copy helpers, time.Sleep) — a deliberate approximation: each package is
// audited with its own summaries, and the externals cover the boundaries
// that matter for the serving stack.

// A BlockSite is one potentially blocking operation, with a description
// suitable for diagnostics ("net.Conn Write", "a channel receive", ...).
type BlockSite struct {
	Pos  token.Pos
	What string
}

// A FuncSummary describes one function declaration of the package under
// analysis. Direct fields are filled by a single AST walk; the closed
// fields additionally account for everything reachable through
// same-package calls.
type FuncSummary struct {
	Obj  *types.Func
	Decl *ast.FuncDecl

	// Blocking lists the blocking operations the body performs directly
	// (outside nested function literals), in source order.
	Blocking []BlockSite

	// Calls lists the distinct same-package functions and methods the body
	// invokes (including inside function literals), in source order.
	Calls []*types.Func

	// MayBlock is the closed blocking fact: a direct blocking operation or
	// a call to a same-package function that may block. BlockDesc describes
	// the first blocking path found, for diagnostics.
	MayBlock  bool
	BlockDesc string

	// ErrSource marks a function whose error result derives from an
	// explicitly modeled fallible operation (net.Conn Write/Close/Read, wire
	// decoding): it returns an error and performs, or transitively calls
	// something that performs, such an operation.
	// Discarding the error of an ErrSource call is what errsink reports.
	ErrSource    bool
	returnsError bool
	directSource bool
}

// Summaries is the per-package summary table.
type Summaries struct {
	pass *Pass
	list []*FuncSummary // declaration order, for deterministic fixpoints
	byFn map[*types.Func]*FuncSummary
}

// Summarize builds and closes the summary table for the package under
// analysis.
func Summarize(pass *Pass) *Summaries {
	s := &Summaries{pass: pass, byFn: make(map[*types.Func]*FuncSummary)}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fs := &FuncSummary{Obj: obj, Decl: fd}
			s.collectDirect(fs)
			s.list = append(s.list, fs)
			s.byFn[obj] = fs
		}
	}
	s.propagate()
	return s
}

// ForFunc returns the summary of a same-package function, or nil.
func (s *Summaries) ForFunc(obj *types.Func) *FuncSummary {
	if obj == nil {
		return nil
	}
	return s.byFn[obj]
}

// collectDirect fills fs's direct facts from its body.
func (s *Summaries) collectDirect(fs *FuncSummary) {
	pass := s.pass
	seenCall := make(map[*types.Func]bool)

	// Blocking operations are a property of the function's own execution, so
	// nested literals are excluded from them; calls are collected everywhere,
	// since they describe what the function's code can reach.
	var walk func(n ast.Node, inLit bool)
	walk = func(n ast.Node, inLit bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			if m == n {
				return true
			}
			if lit, ok := m.(*ast.FuncLit); ok {
				walk(lit.Body, true)
				return false
			}
			if !inLit {
				if site, ok := directBlocking(pass, m); ok {
					fs.Blocking = append(fs.Blocking, site)
				}
			}
			if call, ok := m.(*ast.CallExpr); ok {
				if callee := staticCallee(pass, call); callee != nil && callee.Pkg() == pass.Pkg && !seenCall[callee] {
					seenCall[callee] = true
					fs.Calls = append(fs.Calls, callee)
				}
				if _, ok := externalErrSource(pass, call); ok {
					fs.directSource = true
				}
			}
			return true
		})
	}
	walk(fs.Decl.Body, false)

	sig := fs.Obj.Type().(*types.Signature)
	if res := sig.Results(); res.Len() > 0 {
		fs.returnsError = isErrorType(res.At(res.Len() - 1).Type())
	}
	if fs.directSource && fs.returnsError {
		fs.ErrSource = true
	}
	if len(fs.Blocking) > 0 {
		fs.MayBlock = true
		fs.BlockDesc = fs.Blocking[0].What
	}
}

// propagate closes the direct facts over the call graph with a worklist
// fixpoint. Iteration is over the declaration-ordered list so the
// diagnostics derived from BlockDesc are deterministic.
func (s *Summaries) propagate() {
	for changed := true; changed; {
		changed = false
		for _, fs := range s.list {
			for _, callee := range fs.Calls {
				cs := s.byFn[callee]
				if cs == nil {
					continue
				}
				if cs.MayBlock && !fs.MayBlock {
					fs.MayBlock = true
					fs.BlockDesc = fmt.Sprintf("%s (which blocks on %s)", callee.Name(), cs.BlockDesc)
					changed = true
				}
				if cs.ErrSource && fs.returnsError && !fs.ErrSource {
					fs.ErrSource = true
					changed = true
				}
			}
		}
	}
}

// BlockingIn scans a statement or expression subtree (excluding nested
// function literals and `go` statements, which execute elsewhere) for the
// first blocking operation — direct, or a call to a same-package function
// that may block.
func (s *Summaries) BlockingIn(n ast.Node) (BlockSite, bool) {
	var site BlockSite
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		switch m.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		}
		if bs, ok := directBlocking(s.pass, m); ok {
			site, found = bs, true
			return false
		}
		if call, ok := m.(*ast.CallExpr); ok {
			if fs := s.ForFunc(staticCallee(s.pass, call)); fs != nil && fs.MayBlock {
				site = BlockSite{Pos: call.Pos(), What: fmt.Sprintf("a call to %s (which blocks on %s)", fs.Obj.Name(), fs.BlockDesc)}
				found = true
				return false
			}
		}
		return true
	})
	return site, found
}

// directBlocking classifies one AST node as a directly blocking operation.
func directBlocking(pass *Pass, n ast.Node) (BlockSite, bool) {
	switch n := n.(type) {
	case *ast.SendStmt:
		return BlockSite{Pos: n.Pos(), What: "a channel send"}, true
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			return BlockSite{Pos: n.Pos(), What: "a channel receive"}, true
		}
	case *ast.RangeStmt:
		if tv, ok := pass.TypesInfo.Types[n.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				return BlockSite{Pos: n.Pos(), What: "a channel range"}, true
			}
		}
	case *ast.SelectStmt:
		for _, clause := range n.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
				return BlockSite{}, false // a default clause makes the select non-blocking
			}
		}
		return BlockSite{Pos: n.Pos(), What: "a select with no default"}, true
	case *ast.CallExpr:
		sel, ok := n.Fun.(*ast.SelectorExpr)
		if !ok {
			return BlockSite{}, false
		}
		if obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok && obj.Pkg() != nil {
			switch obj.Pkg().Path() {
			case "sync":
				if obj.Name() == "Wait" {
					return BlockSite{Pos: n.Pos(), What: "sync." + recvTypeName(obj) + ".Wait"}, true
				}
			case "time":
				if obj.Name() == "Sleep" {
					return BlockSite{Pos: n.Pos(), What: "time.Sleep"}, true
				}
			case "io":
				switch obj.Name() {
				case "ReadFull", "ReadAll", "Copy", "CopyN":
					return BlockSite{Pos: n.Pos(), What: "io." + obj.Name()}, true
				}
			}
		}
		if tv, ok := pass.TypesInfo.Types[sel.X]; ok && isConnLike(tv.Type) {
			switch sel.Sel.Name {
			case "Read", "Write":
				return BlockSite{Pos: n.Pos(), What: "net.Conn " + sel.Sel.Name}, true
			}
		}
	}
	return BlockSite{}, false
}

// externalErrSource classifies a call to an explicitly modeled fallible
// operation outside the package: net.Conn Write/Close/Read and wire
// decoding. Returns a short name for diagnostics.
func externalErrSource(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok && obj.Pkg() != nil {
		path := obj.Pkg().Path()
		if isPkgPath(path, "internal/wire") && lastResultIsError(obj) {
			return "wire." + obj.Name(), true
		}
	}
	if tv, ok := pass.TypesInfo.Types[sel.X]; ok && isConnLike(tv.Type) {
		switch sel.Sel.Name {
		case "Read", "Write", "Close":
			return "net.Conn " + sel.Sel.Name, true
		}
	}
	return "", false
}

// isPkgPath matches an import path against a repo-internal package,
// accepting both the canonical module path and any module prefix.
func isPkgPath(path, internal string) bool {
	return path == "repro/"+internal || strings.HasSuffix(path, "/"+internal)
}

// staticCallee resolves the *types.Func a call statically invokes (package
// function or method), or nil for dynamic/builtin calls.
func staticCallee(pass *Pass, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if obj, ok := pass.TypesInfo.Uses[fun].(*types.Func); ok {
			return obj
		}
	case *ast.SelectorExpr:
		if obj, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			return obj
		}
	}
	return nil
}

// connMethodNames is the method-set shape identifying a net.Conn-like type.
// Matching is structural by name so analyzers (and their fixtures) need not
// import net: the six names below are the net.Conn interface minus the
// deadline setters' signatures, and exclude os.File (no Local/RemoteAddr).
var connMethodNames = []string{"Read", "Write", "Close", "LocalAddr", "RemoteAddr", "SetDeadline"}

// isConnLike reports whether t's method set carries the net.Conn shape.
func isConnLike(t types.Type) bool {
	if t == nil {
		return false
	}
	for _, name := range connMethodNames {
		obj, _, _ := types.LookupFieldOrMethod(t, true, nil, name)
		if _, ok := obj.(*types.Func); !ok {
			return false
		}
	}
	return true
}

// recvTypeName names a method's receiver type ("" for package functions).
func recvTypeName(obj *types.Func) string {
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// lastResultIsError reports whether obj's final result is of type error.
func lastResultIsError(obj *types.Func) bool {
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	return isErrorType(sig.Results().At(sig.Results().Len() - 1).Type())
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}
