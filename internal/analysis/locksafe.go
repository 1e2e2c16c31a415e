package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// LockSafe guards the serving layer's mutex discipline with the
// cross-function summaries: between a sync.Mutex / sync.RWMutex Lock (or a
// defer'd Unlock, which holds to function end) and its Unlock, the critical
// section must not perform a blocking operation — net.Conn I/O, a channel
// send/receive/range, a select with no default, sync.WaitGroup.Wait,
// io.ReadFull-style copies, or time.Sleep — nor call a same-package
// function whose summary says it may block. One wedged peer (a client that
// stops reading its TCP socket, a channel nobody drains) then wedges every
// goroutine contending for the lock: for a per-connection server that is a
// cross-connection denial of service. Deliberate serialization locks (a
// write mutex that exists precisely to serialize whole frames onto a conn)
// are reviewed and annotated //simvet:lockio at the blocking call. A sync
// primitive copied by value is go vet's copylocks check, which CI runs over
// every package.
//
// The critical-section walk is a linear over-approximation: branch bodies
// are analyzed with a copy of the held set, so an Unlock inside an `if`
// releases for that branch only, and a Lock inside a branch does not leak
// out. Function literals and `go` statements execute on other goroutines
// (or later) and are excluded from the enclosing critical section.
var LockSafe = &Analyzer{
	Name:  "locksafe",
	Doc:   "flags mutexes held across blocking calls (net.Conn I/O, channel ops, Wait) in the serving packages",
	Scope: ServingPackages,
	Run:   runLockSafe,
}

func runLockSafe(pass *Pass) error {
	sums := Summarize(pass)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fd.Body != nil {
				walkHeld(pass, sums, fd.Body.List, make(map[string]token.Pos))
			}
		}
	}
	return nil
}

// walkHeld scans statements in source order, tracking which mutexes are
// held, and reports blocking operations inside a critical section. held
// maps the lock's receiver expression (printed) to its Lock position.
func walkHeld(pass *Pass, sums *Summaries, stmts []ast.Stmt, held map[string]token.Pos) {
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				if lock, name, isLockOp := mutexOp(pass, call); isLockOp {
					if lock {
						held[name] = call.Pos()
					} else {
						delete(held, name)
					}
					continue
				}
			}
			checkBlocking(pass, sums, s, held)
		case *ast.DeferStmt:
			// defer mu.Unlock() holds to function end: keep it in held so
			// everything after the defer is still a critical section. Other
			// defers run at return, outside the linear walk.
			continue
		case *ast.GoStmt:
			continue // runs on another goroutine
		case *ast.BlockStmt:
			walkHeld(pass, sums, s.List, held)
		case *ast.IfStmt:
			if s.Init != nil {
				checkBlocking(pass, sums, s.Init, held)
			}
			checkBlocking(pass, sums, s.Cond, held)
			walkHeld(pass, sums, s.Body.List, copyHeld(held))
			if s.Else != nil {
				walkHeld(pass, sums, []ast.Stmt{s.Else}, copyHeld(held))
			}
		case *ast.ForStmt:
			if s.Init != nil {
				checkBlocking(pass, sums, s.Init, held)
			}
			if s.Cond != nil {
				checkBlocking(pass, sums, s.Cond, held)
			}
			walkHeld(pass, sums, s.Body.List, copyHeld(held))
		case *ast.RangeStmt:
			checkBlocking(pass, sums, s, held) // a channel range blocks at the statement itself
			walkHeld(pass, sums, s.Body.List, copyHeld(held))
		case *ast.SwitchStmt:
			if s.Tag != nil {
				checkBlocking(pass, sums, s.Tag, held)
			}
			for _, clause := range s.Body.List {
				if cc, ok := clause.(*ast.CaseClause); ok {
					walkHeld(pass, sums, cc.Body, copyHeld(held))
				}
			}
		case *ast.TypeSwitchStmt:
			for _, clause := range s.Body.List {
				if cc, ok := clause.(*ast.CaseClause); ok {
					walkHeld(pass, sums, cc.Body, copyHeld(held))
				}
			}
		case *ast.SelectStmt:
			checkBlocking(pass, sums, s, held) // blocking unless it has a default
			for _, clause := range s.Body.List {
				if cc, ok := clause.(*ast.CommClause); ok {
					walkHeld(pass, sums, cc.Body, copyHeld(held))
				}
			}
		case *ast.LabeledStmt:
			walkHeld(pass, sums, []ast.Stmt{s.Stmt}, held)
		default:
			checkBlocking(pass, sums, stmt, held)
		}
	}
}

// checkBlocking reports the first blocking operation in n while any lock is
// held, honoring the //simvet:lockio review annotation at the blocking
// site.
func checkBlocking(pass *Pass, sums *Summaries, n ast.Node, held map[string]token.Pos) {
	if len(held) == 0 || n == nil {
		return
	}
	site, ok := sums.BlockingIn(n)
	if !ok || pass.Annotated(site.Pos, "lockio") {
		return
	}
	name, lockPos := firstHeld(pass, held)
	pass.Reportf(site.Pos,
		"mutex %s (locked at %s) is held across %s; a stalled peer wedges every goroutine contending for this lock — shrink the critical section or annotate //simvet:lockio after review",
		name, shortPos(pass.Fset.Position(lockPos)), site.What)
}

// firstHeld picks the earliest-locked mutex for the diagnostic, so the
// report is deterministic when several locks are held.
func firstHeld(pass *Pass, held map[string]token.Pos) (string, token.Pos) {
	var name string
	var pos token.Pos
	for n, p := range held {
		if pos == token.NoPos || p < pos || (p == pos && n < name) {
			name, pos = n, p
		}
	}
	return name, pos
}

func shortPos(p token.Position) string {
	name := p.Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return name + ":" + strconv.Itoa(p.Line)
}

func copyHeld(held map[string]token.Pos) map[string]token.Pos {
	out := make(map[string]token.Pos, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

// mutexOp classifies a call as a sync mutex Lock/RLock (lock=true) or
// Unlock/RUnlock (lock=false), returning the printed receiver as the lock
// key.
func mutexOp(pass *Pass, call *ast.CallExpr) (lock bool, key string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return false, "", false
	}
	obj, isFn := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !isFn || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false, "", false
	}
	switch obj.Name() {
	case "Lock", "RLock":
		return true, types.ExprString(sel.X), true
	case "Unlock", "RUnlock":
		return false, types.ExprString(sel.X), true
	}
	return false, "", false
}
