// Package poolreturn checks the scratch-pool discipline on the serving
// path: every sync.Pool.Get is matched by a Put on every non-panicking
// exit, and nothing derived from the pooled buffer outlives the Put. A
// missed Put silently degrades the pool to an allocator under exactly
// the load the pool exists for; a buffer that escapes past its Put is
// recycled under a caller still holding it — the same lost-update shape
// as the batch-dedup race, but through the allocator.
//
// Coverage rules, in order:
//
//   - a defer containing a Put on the same pool object covers every
//     exit (including a deferred closure that Puts members in a loop —
//     the SearchBatch shape);
//   - otherwise every path from the Get to the function exit must pass a
//     Put on the same pool. Paths that die in a panic are exempt: a
//     pool entry lost to an unwinding goroutine is harmless.
//
// Escape rules:
//
//   - a use of the pooled value (or anything chain-derived from it:
//     sc.buf, sc.hits[:n]) reachable after the Put is flagged;
//   - a return of a chain-derived value while a deferred Put will
//     recycle the buffer is flagged. Derivation stops at call results:
//     append(nil, sc.buf...) copies out and is clean. It stops at channel
//     receives too: a value received from a pooled channel (rpc.Call's
//     reply slot) belongs to its sender, not to the pool.
//
// The escape hatch is `//jdvs:pool-ok <reason>`; the reason must say who
// returns the value or why the escape cannot outlive the borrow.
package poolreturn

import (
	"go/ast"
	"go/token"
	"go/types"

	"jdvs/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "poolreturn",
	Doc:  "check sync.Pool values are Put back on all exits and do not escape past the Put",
	Run:  run,
}

const directive = "pool-ok"

// A poolUse is one Get call with its binding.
type poolUse struct {
	get     *ast.CallExpr
	pos     analysis.NodePos
	pool    types.Object // the pool variable/field
	bindVar *types.Var   // LHS var of the Get assignment, if any
	bindDef ast.Node     // the assignment node
}

func run(pass *analysis.Pass) error {
	analysis.WithStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		switch n.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			if fd, ok := n.(*ast.FuncDecl); ok && fd.Body == nil {
				return false
			}
			checkFunc(pass, n)
		}
		return true
	})
	return nil
}

func checkFunc(pass *analysis.Pass, fn ast.Node) {
	cfg := pass.FuncCFG(fn)
	du := pass.ReachingDefs(cfg)

	var gets []*poolUse
	var puts []struct {
		call *ast.CallExpr
		pos  analysis.NodePos
		pool types.Object
	}

	body := funcBody(fn)
	if body == nil {
		return
	}
	var walkStack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			walkStack = walkStack[:len(walkStack)-1]
			return false
		}
		walkStack = append(walkStack, n)
		if _, ok := n.(*ast.FuncLit); ok {
			return false // nested function: its own checkFunc call
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		method, pool := poolCall(pass, call)
		switch method {
		case "Get":
			u := &poolUse{get: call, pos: cfg.NodePos(call, walkStack), pool: pool}
			u.bindVar, u.bindDef = bindingOf(pass, walkStack)
			gets = append(gets, u)
		case "Put":
			// A deferred Put executes at function exit, not at its
			// lexical position; it covers paths (deferredPut) but cannot
			// make later uses stale.
			for _, anc := range walkStack {
				if _, ok := anc.(*ast.DeferStmt); ok {
					return true
				}
			}
			puts = append(puts, struct {
				call *ast.CallExpr
				pos  analysis.NodePos
				pool types.Object
			}{call, cfg.NodePos(call, walkStack), pool})
		}
		return true
	})
	if len(gets) == 0 {
		return
	}

	for _, g := range gets {
		deferred := deferredPut(pass, cfg, g.pool)

		if !deferred {
			isPut := func(n ast.Node) bool {
				found := false
				ast.Inspect(n, func(m ast.Node) bool {
					if c, ok := m.(*ast.CallExpr); ok {
						if method, pool := poolCall(pass, c); method == "Put" && pool == g.pool {
							found = true
						}
					}
					return !found
				})
				return found
			}
			if !g.pos.Valid() || cfg.PathAvoiding(g.pos, isPut) {
				if !pass.DirectiveAt(g.get.Pos(), directive) {
					pass.Reportf(g.get.Pos(),
						"sync.Pool value from %s.Get is not returned to the pool on every exit; Put it on all paths (a deferred Put covers them), or annotate //jdvs:pool-ok with the owner argument",
						poolName(g.pool))
				}
				continue
			}
		}

		if g.bindVar == nil {
			continue
		}
		derivedVars, derivedDefs := derivedClosure(pass, body, g.bindVar, g.bindDef)

		// Uses after an inline Put of the same pool, still bound to this
		// borrow (a reaching def in the derived set), are use-after-free
		// against the pool.
		checkUseAfterPut(pass, cfg, du, body, g, puts, derivedVars, derivedDefs)

		// A deferred Put recycles the buffer the moment the function
		// returns: returning derived state hands the caller a buffer the
		// pool already owns.
		if deferred {
			checkReturnEscape(pass, body, g, derivedVars)
		}
	}
}

func checkUseAfterPut(pass *analysis.Pass, cfg *analysis.CFG, du *analysis.DefUse, body *ast.BlockStmt, g *poolUse, puts []struct {
	call *ast.CallExpr
	pos  analysis.NodePos
	pool types.Object
}, derivedVars map[*types.Var]bool, derivedDefs map[ast.Node]bool) {
	var walkStack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			walkStack = walkStack[:len(walkStack)-1]
			return false
		}
		walkStack = append(walkStack, n)
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || !derivedVars[v] {
			return true
		}
		upos := cfg.NodePos(id, walkStack)
		if !upos.Valid() {
			return true
		}
		// Still this borrow? At least one reaching def must be the Get
		// binding or a derived assignment.
		live := false
		for _, def := range du.DefsAt(v, upos) {
			if def == g.bindDef || derivedDefs[def] {
				live = true
				break
			}
		}
		if !live {
			return true
		}
		for _, p := range puts {
			if p.pool != g.pool || !p.pos.Valid() {
				continue
			}
			if containsNode(p.call, id) {
				continue // the Put's own argument
			}
			if cfg.ReachableAfter(p.pos, upos, false) {
				if !pass.DirectiveAt(id.Pos(), directive) {
					pass.Reportf(id.Pos(),
						"%s may be used after the buffer it derives from was returned to %s; the pool can hand it to another goroutine — move the use before the Put, or annotate //jdvs:pool-ok with the ownership argument",
						id.Name, poolName(g.pool))
				}
				return true
			}
		}
		return true
	})
}

func checkReturnEscape(pass *analysis.Pass, body *ast.BlockStmt, g *poolUse, derivedVars map[*types.Var]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			root := chainRoot(res)
			if root == nil {
				continue
			}
			if v, ok := pass.TypesInfo.Uses[root].(*types.Var); ok && derivedVars[v] {
				if !pass.DirectiveAt(ret.Pos(), directive) {
					pass.Reportf(ret.Pos(),
						"%s derives from a pooled buffer that the deferred Put recycles when this function returns; copy the data out, or annotate //jdvs:pool-ok with the ownership argument",
						root.Name)
				}
			}
		}
		return true
	})
}

// derivedClosure computes, flow-insensitively, the variables
// chain-derived from the Get binding (x := sc.buf, y := x[:n]) and the
// assignment nodes that establish derivation. Call results are fresh and
// stop the chain.
func derivedClosure(pass *analysis.Pass, body *ast.BlockStmt, bind *types.Var, bindDef ast.Node) (map[*types.Var]bool, map[ast.Node]bool) {
	vars := map[*types.Var]bool{bind: true}
	defs := map[ast.Node]bool{}
	if bindDef != nil {
		defs[bindDef] = true
	}
	for {
		grew := false
		ast.Inspect(body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				lid, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				var lv *types.Var
				if o, ok := pass.TypesInfo.Defs[lid].(*types.Var); ok {
					lv = o
				} else if o, ok := pass.TypesInfo.Uses[lid].(*types.Var); ok {
					lv = o
				}
				if lv == nil || vars[lv] {
					continue
				}
				root := chainRoot(as.Rhs[i])
				if root == nil {
					continue
				}
				if rv, ok := pass.TypesInfo.Uses[root].(*types.Var); ok && vars[rv] {
					vars[lv] = true
					defs[as] = true
					grew = true
				}
			}
			return true
		})
		if !grew {
			return vars, defs
		}
	}
}

// chainRoot unwraps selector/index/slice/star/paren/type-assert chains
// to the root identifier; call expressions (copies, conversions) stop
// the chain.
func chainRoot(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				// A value received from a pooled channel is what the
				// sender put there, not memory of the channel.
				return nil
			}
			e = x.X
		default:
			return nil
		}
	}
}

// bindingOf returns the variable the enclosing assignment binds the Get
// result to, looking through a type assertion (sc := pool.Get().(*T)).
func bindingOf(pass *analysis.Pass, stack []ast.Node) (*types.Var, ast.Node) {
	for i := len(stack) - 1; i >= 0; i-- {
		switch s := stack[i].(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) >= 1 {
				if id, ok := s.Lhs[0].(*ast.Ident); ok {
					if v, ok := pass.TypesInfo.Defs[id].(*types.Var); ok {
						return v, s
					}
					if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok {
						return v, s
					}
				}
			}
			return nil, nil
		case *ast.FuncDecl, *ast.FuncLit:
			return nil, nil
		}
	}
	return nil, nil
}

// deferredPut reports whether any defer in the function contains a Put
// on pool (directly or inside a deferred closure).
func deferredPut(pass *analysis.Pass, cfg *analysis.CFG, pool types.Object) bool {
	for _, d := range cfg.Defers {
		found := false
		ast.Inspect(d.Call, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				if method, p := poolCall(pass, c); method == "Put" && p == pool {
					found = true
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// poolCall classifies call as a Get/Put method call on a sync.Pool and
// returns the pool's root object.
func poolCall(pass *analysis.Pass, call *ast.CallExpr) (method string, pool types.Object) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", nil
	}
	name := sel.Sel.Name
	if name != "Get" && name != "Put" {
		return "", nil
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Pool" || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return "", nil
	}
	// The pool's identity: the final selector component (field or var).
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.Ident:
		return name, pass.TypesInfo.Uses[x]
	case *ast.SelectorExpr:
		return name, pass.TypesInfo.Uses[x.Sel]
	case *ast.UnaryExpr:
		if inner, ok := ast.Unparen(x.X).(*ast.Ident); ok {
			return name, pass.TypesInfo.Uses[inner]
		}
	}
	return "", nil
}

func poolName(o types.Object) string {
	if o == nil {
		return "the pool"
	}
	return o.Name()
}

func funcBody(fn ast.Node) *ast.BlockStmt {
	switch f := fn.(type) {
	case *ast.FuncDecl:
		return f.Body
	case *ast.FuncLit:
		return f.Body
	}
	return nil
}

func containsNode(n, target ast.Node) bool {
	if n == target {
		return true
	}
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if m == target {
			found = true
		}
		return !found
	})
	return found
}
