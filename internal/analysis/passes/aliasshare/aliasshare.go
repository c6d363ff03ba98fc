// Package aliasshare flags values handed to another consumer — stored
// into the shared internal/cache.Cache, fanned out to the waiters of a
// loop, or aliased into a second slot of a shared result slice — that
// still retain mutable slice/map state reachable by the producer. The
// type system cannot see the handoff; -race sees it only on an exercised
// interleaving. This is the shape of the batch-dedup race the (since
// removed) single-flight batch search path once had, kept as the batchRace
// fixture: deduplicated queries aliased one *SearchResponse into several
// response slots, and two waiters then raced on the shared Hits backing.
// The blessed fix, the batchFixed fixture, is the deep copy
//
//	cp := *r
//	cp.Hits = append([]core.Hit(nil), r.Hits...)
//	resps[i] = &cp
//
// which the analyzer's escape/alias lattice recognizes: the dereference
// copies the parameter's interior aliasing onto cp's fields and the
// cloned append kills it field by field.
//
// Three handoff shapes are checked:
//
//   - slot aliasing: s[i] = x where x may alias another element of s —
//     two per-slot consumers now share one mutable object;
//   - cache publication: Cache.Put of a value that may alias state
//     reachable through a parameter, receiver field, package variable or
//     shared slice element;
//   - loop fan-out: a channel send inside a loop whose payload is the
//     same mutable value every iteration.
//
// Call results are assumed fresh and interface values alias-free, so the
// pass under-reports rather than cry wolf on a hard CI gate.
//
// The escape hatch is `//jdvs:alias-ok <reason>`; the reason must name
// why sharing is safe (single consumer, immutable-by-contract, etc).
package aliasshare

import (
	"go/ast"
	"go/token"
	"go/types"

	"jdvs/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "aliasshare",
	Doc:  "flag cached, fanned-out or slot-aliased values that retain producer-reachable mutable state",
	Run:  run,
}

const directive = "alias-ok"

func run(pass *analysis.Pass) error {
	analysis.WithStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		fn := analysis.EnclosingFunc(stack[:len(stack)-1])
		if fn == nil {
			return true
		}
		switch s := n.(type) {
		case *ast.AssignStmt:
			checkSlotAlias(pass, fn, s, stack)
		case *ast.CallExpr:
			checkCachePut(pass, fn, s, stack)
		case *ast.SendStmt:
			checkLoopFanout(pass, fn, s, stack)
		}
		return true
	})
	return nil
}

// checkSlotAlias flags s[i] = x where x may alias another element of s.
func checkSlotAlias(pass *analysis.Pass, fn ast.Node, as *ast.AssignStmt, stack []ast.Node) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		ix, ok := ast.Unparen(lhs).(*ast.IndexExpr)
		if !ok {
			continue
		}
		baseID, ok := ast.Unparen(ix.X).(*ast.Ident)
		if !ok {
			continue
		}
		baseVar, ok := pass.TypesInfo.Uses[baseID].(*types.Var)
		if !ok {
			continue
		}
		sl, ok := pass.TypesInfo.Types[ix.X].Type.Underlying().(*types.Slice)
		if !ok || !hasMutableState(sl.Elem()) {
			continue
		}
		if sameSlotRewrite(ix, as.Rhs[i]) {
			// s[i] = append(s[i], ...) and s[i] = s[i][:n] grow or trim a
			// slot in place; the alias is the slot itself, not a second
			// consumer.
			continue
		}
		al := pass.FuncAliasing(pass.FuncCFG(fn))
		for o := range al.OriginsAt(as.Rhs[i], stack) {
			if o.Kind == analysis.OriginElem && o.Obj == baseVar {
				if !pass.DirectiveAt(as.Pos(), directive) {
					pass.Reportf(as.Pos(),
						"assignment aliases one element of %s into another slot; per-slot consumers then share one mutable object — deep-copy the element first, or annotate //jdvs:alias-ok with the single-consumer argument",
						baseVar.Name())
				}
				break
			}
		}
	}
}

// sameSlotRewrite reports whether rhs rewrites the exact slot lhs names:
// an append / slice / index chain whose innermost base prints as the same
// expression as lhs. Self-rewrites recirculate the slot's own value, so
// no second consumer gains a reference.
func sameSlotRewrite(lhs *ast.IndexExpr, rhs ast.Expr) bool {
	want := types.ExprString(lhs)
	e := ast.Unparen(rhs)
	for {
		switch x := e.(type) {
		case *ast.CallExpr:
			fn, ok := ast.Unparen(x.Fun).(*ast.Ident)
			if !ok || fn.Name != "append" || len(x.Args) == 0 {
				return false
			}
			e = ast.Unparen(x.Args[0])
		case *ast.SliceExpr:
			e = ast.Unparen(x.X)
		default:
			return types.ExprString(e) == want
		}
	}
}

// checkCachePut flags Cache.Put of a value that may alias
// producer-reachable mutable state.
func checkCachePut(pass *analysis.Pass, fn ast.Node, call *ast.CallExpr, stack []ast.Node) {
	if !isCachePut(pass, call) || len(call.Args) < 2 {
		return
	}
	value := call.Args[1]
	if tv, ok := pass.TypesInfo.Types[value]; !ok || !hasMutableState(tv.Type) {
		return
	}
	al := pass.FuncAliasing(pass.FuncCFG(fn))
	for o := range al.OriginsAt(value, stack) {
		var via string
		switch o.Kind {
		case analysis.OriginParam:
			via = "parameter"
		case analysis.OriginField:
			via = "receiver field"
		case analysis.OriginGlobal:
			via = "package variable"
		case analysis.OriginElem:
			via = "shared slice element"
		default:
			continue
		}
		name := ""
		if o.Obj != nil {
			name = " " + o.Obj.Name()
		}
		if !pass.DirectiveAt(call.Pos(), directive) {
			pass.Reportf(call.Pos(),
				"value stored into the shared cache retains mutable state reachable through %s%s; the producer can mutate it after publication — deep-copy before Put, or annotate //jdvs:alias-ok with the immutability argument",
				via, name)
		}
		return
	}
}

// checkLoopFanout flags a channel send inside a loop whose payload is
// the same mutable value on every iteration.
func checkLoopFanout(pass *analysis.Pass, fn ast.Node, send *ast.SendStmt, stack []ast.Node) {
	loop := enclosingLoop(stack, fn)
	if loop == nil {
		return
	}
	if tv, ok := pass.TypesInfo.Types[send.Value]; !ok || !hasMutableState(tv.Type) {
		return
	}
	// A payload naming any variable assigned by the loop is
	// per-iteration: resps[1+i] with i the range index fans out distinct
	// slots. Only a loop-invariant payload is a broadcast.
	loopVars := varsAssignedIn(pass, loop)
	variant := false
	ast.Inspect(send.Value, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok && loopVars[v] {
				variant = true
			}
		}
		return !variant
	})
	if variant {
		return
	}
	// Fresh state allocated inside the loop body (no loop vars involved
	// but a per-iteration make/literal) would still be variant; origins
	// distinguish: anything non-fresh reaching the send is shared. A
	// payload constructed at the send site itself — a composite literal,
	// &literal, or call — is evaluated anew every iteration, so a Fresh
	// origin there is per-iteration, not a broadcast.
	inline := isInlineAlloc(send.Value)
	al := pass.FuncAliasing(pass.FuncCFG(fn))
	shared := false
	for o := range al.OriginsAt(send.Value, stack) {
		if o.Kind == analysis.OriginUnknown || (inline && o.Kind == analysis.OriginFresh) {
			continue
		}
		shared = true
		break
	}
	if !shared {
		return
	}
	if !pass.DirectiveAt(send.Pos(), directive) {
		pass.Reportf(send.Pos(),
			"the same mutable value is sent to a receiver on every iteration of this loop; the consumers share its slice/map state — send a per-iteration copy, or annotate //jdvs:alias-ok with the single-receiver argument")
	}
}

// isInlineAlloc reports whether e constructs its value where it stands:
// a composite literal, a pointer to one, or a call result.
func isInlineAlloc(e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.CompositeLit, *ast.CallExpr:
		return true
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			_, ok := ast.Unparen(x.X).(*ast.CompositeLit)
			return ok
		}
	}
	return false
}

// enclosingLoop returns the innermost for/range statement in stack that
// is inside fn, or nil.
func enclosingLoop(stack []ast.Node, fn ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return stack[i]
		case *ast.FuncDecl, *ast.FuncLit:
			if stack[i] == fn {
				return nil
			}
			return nil
		}
	}
	return nil
}

// varsAssignedIn collects every variable assigned anywhere in the loop:
// range key/value, init/post vars, and body assignments. Nested function
// literals are included — a per-iteration closure capture is still
// per-iteration.
func varsAssignedIn(pass *analysis.Pass, loop ast.Node) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	add := func(id *ast.Ident) {
		var obj types.Object
		if o, ok := pass.TypesInfo.Defs[id]; ok {
			obj = o
		} else if o, ok := pass.TypesInfo.Uses[id]; ok {
			obj = o
		}
		if v, ok := obj.(*types.Var); ok {
			out[v] = true
		}
	}
	ast.Inspect(loop, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					add(id)
				}
			}
		case *ast.IncDecStmt:
			if id, ok := s.X.(*ast.Ident); ok {
				add(id)
			}
		case *ast.RangeStmt:
			if id, ok := s.Key.(*ast.Ident); ok {
				add(id)
			}
			if id, ok := s.Value.(*ast.Ident); ok {
				add(id)
			}
		case *ast.DeclStmt:
			if gd, ok := s.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, name := range vs.Names {
							add(name)
						}
					}
				}
			}
		}
		return true
	})
	return out
}

// isCachePut recognizes a Put method call on internal/cache.Cache (by
// import-path suffix, so fixture modules mirroring the layout match).
func isCachePut(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Put" {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Cache" || named.Obj().Pkg() == nil {
		return false
	}
	return pathHasSuffix(named.Obj().Pkg().Path(), "internal/cache")
}

func pathHasSuffix(p, s string) bool {
	if p == s {
		return true
	}
	return len(p) > len(s) && p[len(p)-len(s)-1] == '/' && p[len(p)-len(s):] == s
}

// hasMutableState reports whether values of t carry mutable reference
// state worth protecting: slices, maps, pointers-to-structs-with-them,
// or structs containing them. Interfaces and strings do not count.
func hasMutableState(t types.Type) bool {
	return mutable(t, 0)
}

func mutable(t types.Type, depth int) bool {
	if depth > 4 {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Map:
		return true
	case *types.Pointer:
		return mutable(u.Elem(), depth+1)
	case *types.Chan:
		return true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if mutable(u.Field(i).Type(), depth+1) {
				return true
			}
		}
		return false
	case *types.Array:
		return mutable(u.Elem(), depth+1)
	}
	return false
}
