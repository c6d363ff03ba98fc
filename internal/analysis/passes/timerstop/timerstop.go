// Package timerstop checks timer hygiene on long-running serving loops:
//
//   - time.After inside a loop allocates a fresh timer and channel every
//     iteration; none is collectable until it fires. On a hot accept or
//     collection-window loop that is unbounded timer churn — use one
//     time.NewTimer and Reset it, or Stop it per iteration (the
//     batcherIdiom fixture). A one-shot time.After outside a loop is
//     idiomatic and not flagged.
//
//   - a time.NewTimer must be stopped — or drained (<-t.C: a fired
//     timer holds nothing) — on every non-panicking path; a
//     time.NewTicker must be stopped on every such path, and drains do
//     not help (tickers re-arm). A deferred Stop covers all exits.
//
// time.AfterFunc is exempt: its callback firing is the cleanup.
//
// The escape hatch is `//jdvs:timer-ok <reason>`; the reason must bound
// the leak (loop exits after one iteration, process-lifetime ticker in
// main, etc).
package timerstop

import (
	"go/ast"
	"go/token"
	"go/types"

	"jdvs/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "timerstop",
	Doc:  "flag time.After in loops and NewTimer/NewTicker without Stop on some path",
	Run:  run,
}

const directive = "timer-ok"

func run(pass *analysis.Pass) error {
	analysis.WithStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch timeFunc(pass, call) {
		case "After":
			if loopWithin(stack) != nil && !pass.DirectiveAt(call.Pos(), directive) {
				pass.Reportf(call.Pos(),
					"time.After in a loop allocates an uncollectable timer every iteration; hoist a time.NewTimer and Reset/Stop it, or annotate //jdvs:timer-ok with the bound argument")
			}
		case "Tick":
			if !pass.DirectiveAt(call.Pos(), directive) {
				pass.Reportf(call.Pos(),
					"time.Tick's ticker can never be stopped; use time.NewTicker with a deferred Stop, or annotate //jdvs:timer-ok with the process-lifetime argument")
			}
		case "NewTimer":
			checkStopped(pass, call, stack, true)
		case "NewTicker":
			checkStopped(pass, call, stack, false)
		}
		return true
	})
	return nil
}

// checkStopped verifies the timer/ticker bound at call is stopped (or,
// for timers, drained) on every non-panicking path.
func checkStopped(pass *analysis.Pass, call *ast.CallExpr, stack []ast.Node, drainCounts bool) {
	fn := analysis.EnclosingFunc(stack[:len(stack)-1])
	if fn == nil {
		return
	}
	kind := "time.NewTimer"
	if !drainCounts {
		kind = "time.NewTicker"
	}
	v := boundVar(pass, stack)
	if v == nil {
		// Unassigned: <-time.NewTimer(d).C blocks until the timer fires
		// and holds nothing after — fine. An unassigned ticker can never
		// be stopped.
		if !drainCounts && !pass.DirectiveAt(call.Pos(), directive) {
			pass.Reportf(call.Pos(),
				"%s result is not bound to a variable, so its Stop can never be called; bind it and defer Stop, or annotate //jdvs:timer-ok with the lifetime argument", kind)
		}
		return
	}

	cfg := pass.FuncCFG(fn)
	covers := func(n ast.Node) bool { return stopsOrDrains(pass, n, v, drainCounts) }

	// A deferred Stop (or deferred closure stopping it) covers all exits.
	for _, d := range cfg.Defers {
		if covers(d.Call) {
			return
		}
	}
	pos := cfg.NodePos(call, stack)
	if !pos.Valid() {
		return
	}
	if cfg.PathAvoiding(pos, covers) {
		if !pass.DirectiveAt(call.Pos(), directive) {
			remedy := "Stop it on every path or defer the Stop"
			if drainCounts {
				remedy = "Stop it on every path (a drained <-" + v.Name() + ".C also settles it)"
			}
			pass.Reportf(call.Pos(),
				"%s is not stopped on every path out of %s; %s, or annotate //jdvs:timer-ok with the bound argument",
				kind, funcName(fn), remedy)
		}
	}
}

// stopsOrDrains reports whether n contains v.Stop() or (when drains
// count) a receive from v.C.
func stopsOrDrains(pass *analysis.Pass, n ast.Node, v *types.Var, drainCounts bool) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		switch x := m.(type) {
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Stop" {
				if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == v {
					found = true
				}
			}
		case *ast.UnaryExpr:
			if drainCounts && x.Op == token.ARROW {
				if sel, ok := ast.Unparen(x.X).(*ast.SelectorExpr); ok && sel.Sel.Name == "C" {
					if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == v {
						found = true
					}
				}
			}
		}
		return !found
	})
	return found
}

// boundVar returns the variable the enclosing assignment binds the
// constructor result to.
func boundVar(pass *analysis.Pass, stack []ast.Node) *types.Var {
	for i := len(stack) - 1; i >= 0; i-- {
		switch s := stack[i].(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) == 1 {
				if id, ok := s.Lhs[0].(*ast.Ident); ok {
					if v, ok := pass.TypesInfo.Defs[id].(*types.Var); ok {
						return v
					}
					if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok {
						return v
					}
				}
			}
			return nil
		case *ast.ValueSpec:
			if len(s.Names) == 1 {
				if v, ok := pass.TypesInfo.Defs[s.Names[0]].(*types.Var); ok {
					return v
				}
			}
			return nil
		case *ast.FuncDecl, *ast.FuncLit:
			return nil
		}
	}
	return nil
}

// loopWithin returns the innermost for/range enclosing the tip of stack
// within the same function, or nil.
func loopWithin(stack []ast.Node) ast.Node {
	for i := len(stack) - 2; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return stack[i]
		case *ast.FuncDecl, *ast.FuncLit:
			return nil
		}
	}
	return nil
}

// timeFunc returns the name of the time-package function call, or "".
func timeFunc(pass *analysis.Pass, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
		return ""
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		// A method such as time.Time.After, not the package function.
		return ""
	}
	return fn.Name()
}

func funcName(fn ast.Node) string {
	if fd, ok := fn.(*ast.FuncDecl); ok {
		return fd.Name.Name
	}
	return "this function literal"
}
