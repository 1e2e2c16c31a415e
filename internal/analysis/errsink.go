package analysis

import (
	"go/ast"
)

// ErrSink flags discarded errors from the serving stack's fallible
// operations. An operation is in scope when it is one of the explicitly
// modeled externals — net.Conn Write/Close/Read, internal/wire decoding —
// or a same-package function whose summary marks it an error source: it
// returns an error and transitively performs one of those operations
// (WSConn.Close wraps net.Conn.Close three frames down; discarding its error
// discards the transport's). The wire encoders return plain []byte and are
// immune by construction; the decoders are the untrusted-input edge and
// their errors are the protocol gate.
//
// A discard is: the call as a bare expression statement, a `defer` or `go`
// of the call, or an assignment whose error position is blank. Errors
// assigned to a variable or field, or compared inline, are handled as far
// as this analyzer can see. A reviewed discard — a best-effort close frame
// on an already-failed connection, say — is annotated
//
//	//simvet:discard — <why the error is uninformative here>
//
// on or above the call.
var ErrSink = &Analyzer{
	Name:  "errsink",
	Doc:   "flags discarded errors from net.Conn Write/Close, wire decoding, and same-package wrappers of them (//simvet:discard suppresses after review)",
	Scope: ServingPackages,
	Run:   runErrSink,
}

func runErrSink(pass *Pass) error {
	sums := Summarize(pass)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					checkDiscard(pass, sums, call)
				}
			case *ast.DeferStmt:
				checkDiscard(pass, sums, n.Call)
			case *ast.GoStmt:
				checkDiscard(pass, sums, n.Call)
			case *ast.AssignStmt:
				checkBlankAssign(pass, sums, n)
			}
			return true
		})
	}
	return nil
}

// checkDiscard reports a call whose entire result list — error included —
// is dropped.
func checkDiscard(pass *Pass, sums *Summaries, call *ast.CallExpr) {
	name, ok := errSourceName(pass, sums, call)
	if !ok || pass.Annotated(call.Pos(), "discard") {
		return
	}
	pass.Reportf(call.Pos(),
		"error from %s is silently discarded; handle it or annotate //simvet:discard with the reason it is uninformative here",
		name)
}

// checkBlankAssign reports x, _ := call() / _ = call() shapes where the
// error position lands in a blank identifier.
func checkBlankAssign(pass *Pass, sums *Summaries, assign *ast.AssignStmt) {
	// Only the single-call form can split results across the LHS.
	if len(assign.Rhs) == 1 {
		if call, ok := assign.Rhs[0].(*ast.CallExpr); ok && len(assign.Lhs) >= 1 {
			if isBlank(assign.Lhs[len(assign.Lhs)-1]) {
				checkDiscard(pass, sums, call)
			}
			return
		}
	}
	for i, rhs := range assign.Rhs {
		if i >= len(assign.Lhs) || !isBlank(assign.Lhs[i]) {
			continue
		}
		if call, ok := rhs.(*ast.CallExpr); ok {
			checkDiscard(pass, sums, call)
		}
	}
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// errSourceName classifies a call as an error source: an explicitly
// modeled external, or a same-package function summarized as wrapping one.
// The call must actually return an error in its final result.
func errSourceName(pass *Pass, sums *Summaries, call *ast.CallExpr) (string, bool) {
	if name, ok := externalErrSource(pass, call); ok {
		return name, true
	}
	callee := staticCallee(pass, call)
	if callee == nil || !lastResultIsError(callee) {
		return "", false
	}
	if fs := sums.ForFunc(callee); fs != nil && fs.ErrSource {
		return callee.Name(), true
	}
	return "", false
}
