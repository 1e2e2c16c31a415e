package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is the cross-function core the v2 analyzers (locksafe, goleak,
// errsink) share: a per-package call graph plus a summary of each function's
// concurrency-relevant behavior, computed bottom-up over the same AST+types
// representation the single-function analyzers use. Summaries start from
// direct facts (blocking operations performed, loops with no exit,
// termination signals referenced, error sources called, static callees) and
// close over the call graph with a worklist fixpoint, so an analyzer asking
// "may this call block?" or "does this goroutine body ever terminate?" sees
// through any depth of same-package calls. Cross-package calls are opaque
// except for the explicitly modeled externals (net.Conn-shaped I/O, sync
// primitives, io copy helpers, time.Sleep) — a deliberate approximation:
// each package is audited with its own summaries, and the externals cover
// the boundaries that matter for the serving stack.

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

	// LoopsForever marks a body containing a `for` with no condition and no
	// reachable exit (no return, no break out of the loop, no panic), or a
	// call to a same-package function that loops forever.
	LoopsForever bool

	// TermSignal marks a body that references a termination mechanism — a
	// context.Context value, any channel operation (receive, send, close,
	// select, range), or sync.WaitGroup.Done — directly or through a
	// same-package call.
	TermSignal bool

	// ErrSource marks a function whose error result derives from an
	// explicitly modeled fallible operation (net.Conn Write/Close/Read,
	// pagestore I/O, wire decoding): it returns an error and performs, or
	// transitively calls something that performs, such an operation.
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

	// Blocking operations and loop shape are properties of the function's
	// own execution, so nested literals are excluded from them; calls and
	// termination signals are collected everywhere, since they describe what
	// the function's code can reach.
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
				if loop, ok := m.(*ast.ForStmt); ok && loopsForever(loop) {
					fs.LoopsForever = true
				}
			}
			if isTermSignal(pass, m) {
				fs.TermSignal = true
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
				if cs.LoopsForever && !fs.LoopsForever {
					fs.LoopsForever = true
					changed = true
				}
				if cs.TermSignal && !fs.TermSignal {
					fs.TermSignal = true
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

// SpawnFacts resolves the function a `go` statement spawns and returns its
// closed termination facts. known is false when the spawned function cannot
// be resolved (external call, method value, dynamic function).
func (s *Summaries) SpawnFacts(call *ast.CallExpr) (loopsForever, termSignal, known bool) {
	switch fun := call.Fun.(type) {
	case *ast.FuncLit:
		return s.litFacts(fun), litTermSignal(s, fun), true
	default:
		_ = fun
	}
	if fs := s.ForFunc(staticCallee(s.pass, call)); fs != nil {
		return fs.LoopsForever, fs.TermSignal, true
	}
	return false, false, false
}

// litFacts reports whether a function literal's body loops forever, merging
// the closed summaries of the same-package functions it calls.
func (s *Summaries) litFacts(lit *ast.FuncLit) bool {
	loops := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if loop, ok := n.(*ast.ForStmt); ok && loopsForever(loop) {
			loops = true
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if fs := s.ForFunc(staticCallee(s.pass, call)); fs != nil && fs.LoopsForever {
				loops = true
			}
		}
		return !loops
	})
	return loops
}

// litTermSignal reports whether a termination signal reaches the literal's
// body, directly or through same-package calls.
func litTermSignal(s *Summaries, lit *ast.FuncLit) bool {
	term := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if isTermSignal(s.pass, n) {
			term = true
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if fs := s.ForFunc(staticCallee(s.pass, call)); fs != nil && fs.TermSignal {
				term = true
			}
		}
		return !term
	})
	return term
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

// isTermSignal reports whether n references a goroutine termination
// mechanism: a context.Context value, any channel operation, or
// sync.WaitGroup.Done.
func isTermSignal(pass *Pass, n ast.Node) bool {
	switch n := n.(type) {
	case *ast.Ident:
		if obj := pass.TypesInfo.Uses[n]; obj != nil && isContextType(obj.Type()) {
			return true
		}
	case *ast.SendStmt, *ast.SelectStmt:
		return true
	case *ast.UnaryExpr:
		return n.Op == token.ARROW
	case *ast.RangeStmt:
		if tv, ok := pass.TypesInfo.Types[n.X]; ok {
			_, isChan := tv.Type.Underlying().(*types.Chan)
			return isChan
		}
	case *ast.CallExpr:
		if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "close" {
			if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
				return true
			}
		}
		if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
			if obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok &&
				obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "Done" {
				return true
			}
		}
	}
	return false
}

// loopsForever reports a `for` statement with no condition and no exit path
// in its body: no return, no break that targets it, no goto, no panic.
func loopsForever(loop *ast.ForStmt) bool {
	if loop.Cond != nil {
		return false
	}
	exit := false
	var walk func(n ast.Node, plainBreakExits bool)
	walk = func(n ast.Node, plainBreakExits bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			if exit || m == nil || m == n {
				return !exit
			}
			switch m := m.(type) {
			case *ast.FuncLit:
				return false // its returns/breaks don't exit this loop
			case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
				walk(m, false) // plain break now targets the inner statement
				return false
			case *ast.ReturnStmt:
				exit = true
			case *ast.BranchStmt:
				switch m.Tok {
				case token.GOTO:
					exit = true
				case token.BREAK:
					if m.Label != nil || plainBreakExits {
						exit = true
					}
				}
			case *ast.CallExpr:
				if isAbortCall(m) {
					exit = true
				}
			}
			return !exit
		})
	}
	walk(loop.Body, true)
	return !exit
}

// isAbortCall recognizes panic and os.Exit-style calls as loop exits.
func isAbortCall(call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		if pkg, ok := fun.X.(*ast.Ident); ok {
			return (pkg.Name == "os" && fun.Sel.Name == "Exit") ||
				(pkg.Name == "log" && strings.HasPrefix(fun.Sel.Name, "Fatal"))
		}
	}
	return false
}

// externalErrSource classifies a call to an explicitly modeled fallible
// operation outside the package: net.Conn Write/Close/Read, pagestore I/O,
// and wire decoding. Returns a short name for diagnostics.
func externalErrSource(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok && obj.Pkg() != nil {
		path := obj.Pkg().Path()
		if isPkgPath(path, "internal/pagestore") && lastResultIsError(obj) {
			return "pagestore." + recvTypeName(obj) + "." + obj.Name(), true
		}
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

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// typeContainsSync reports whether a value of type t embeds (by value) a
// sync or sync/atomic primitive, and names the first one found. Pointers
// and interfaces are fine — sharing by pointer is the contract this check
// enforces.
func typeContainsSync(t types.Type) (string, bool) {
	return containsSync(t, make(map[types.Type]bool))
}

func containsSync(t types.Type, seen map[types.Type]bool) (string, bool) {
	if seen[t] {
		return "", false
	}
	seen[t] = true
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil {
			switch obj.Pkg().Path() {
			case "sync", "sync/atomic":
				return obj.Pkg().Name() + "." + obj.Name(), true
			}
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if name, ok := containsSync(u.Field(i).Type(), seen); ok {
				return name, ok
			}
		}
	case *types.Array:
		return containsSync(u.Elem(), seen)
	}
	return "", false
}
