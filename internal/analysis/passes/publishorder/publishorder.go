// Package publishorder checks the reader half of the shard's lock-free
// publish protocol. featMat, codeBlocks and the forward records keep
// their elements in chunks behind an atomic directory pointer, and a
// single writer publishes each element by advancing an atomic length. A
// reader must load the length before the directory: loaded the other way
// round, a grow can publish a longer directory and a longer length
// between the two loads, and the new bound then indexes a chunk the old
// directory lacks.
//
// The rule: in a function that loads both the atomic length and the
// atomic directory pointer of the same holder, and indexes the loaded
// directory — the Load call itself, or a local assigned from it — the
// length must be loaded first on every path.
//
// The write half ("fill, then publish") is not checked here. A newest-element
// test beside each structure reads the element just published while a
// writer appends, and fails under -race when the write follows the
// publish (docs/INVARIANTS.md names the tests).
package publishorder

import (
	"go/ast"
	"go/types"

	"jdvs/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "publishorder",
	Doc:  "check that a reader loads the atomic length before the chunk directory it indexes",
	Run:  run,
}

// atomicIntTypes are the sync/atomic counter types used as published
// lengths. Bool is deliberately absent: a flag load does not bound an
// index.
var atomicIntTypes = map[string]bool{
	"Int32": true, "Int64": true, "Uint32": true, "Uint64": true, "Uintptr": true,
}

// atomicPtrTypes are the sync/atomic types holding chunk directories.
var atomicPtrTypes = map[string]bool{
	"Pointer": true, "Value": true,
}

// A load is one Load call on a sync/atomic value: its CFG position and
// the holder it is loaded through (m in m.length.Load()).
type load struct {
	call *ast.CallExpr
	pos  analysis.NodePos
	base types.Object
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkFunc(pass, fd)
			}
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	cfg := pass.FuncCFG(fn)
	var (
		lens, dirs []load
		bases      []ast.Expr                         // operands of index and slice expressions
		assigned   = map[*ast.CallExpr]types.Object{} // call → the local it is assigned to
		stack      []ast.Node
	)
	assign := func(lhs, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if call, isCall := root(rhs).(*ast.CallExpr); ok && isCall {
			assigned[call] = pass.TypesInfo.ObjectOf(id)
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false // a literal has its own CFG; keep the check intraprocedural
		}
		stack = append(stack, n)
		switch x := n.(type) {
		case *ast.IndexExpr:
			bases = append(bases, x.X)
		case *ast.SliceExpr:
			bases = append(bases, x.X)
		case *ast.AssignStmt:
			if len(x.Lhs) == len(x.Rhs) {
				for i := range x.Lhs {
					assign(x.Lhs[i], x.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(x.Names) == len(x.Values) {
				for i := range x.Names {
					assign(x.Names[i], x.Values[i])
				}
			}
		case *ast.CallExpr:
			isLen, base := atomicLoad(pass, x)
			if base == nil {
				break
			}
			l := load{call: x, pos: cfg.NodePos(x, stack), base: base}
			if isLen {
				lens = append(lens, l)
			} else {
				dirs = append(dirs, l)
			}
		}
		return true
	})

	for _, d := range dirs {
		if !indexes(pass, bases, d.call, assigned[d.call]) {
			continue // a stats read of the directory has no bound to violate
		}
		// Only a length of the same holder bounds this directory: pairing
		// by holder keeps per-segment lengths (inverted) out of scope.
		var own []load
		for _, l := range lens {
			if l.base == d.base {
				own = append(own, l)
			}
		}
		if len(own) == 0 {
			continue
		}
		isLenLoad := func(n ast.Node) bool {
			for _, l := range own {
				if containsNode(n, l.call) {
					return true
				}
			}
			return false
		}
		if cfg.PathToAvoiding(d.pos, isLenLoad) {
			pass.Reportf(d.call.Pos(),
				"directory pointer of %s is loaded before its atomic length on some path; load the length first so the bound matches the backing",
				d.base.Name())
		}
	}
}

// indexes reports whether one of bases reads through the directory
// loaded by call: its root is call itself, or dst, the local call is
// assigned to (nil if none). A local assigned from dst is not followed.
func indexes(pass *analysis.Pass, bases []ast.Expr, call *ast.CallExpr, dst types.Object) bool {
	for _, b := range bases {
		switch r := root(b).(type) {
		case *ast.CallExpr:
			if r == call {
				return true
			}
		case *ast.Ident:
			if dst != nil && pass.TypesInfo.Uses[r] == dst {
				return true
			}
		}
	}
	return false
}

// atomicLoad classifies call as a Load of a sync/atomic length (isLen)
// or directory pointer, and returns the holder it is loaded through —
// the root identifier's object — or nil for any other call.
func atomicLoad(pass *analysis.Pass, call *ast.CallExpr) (isLen bool, base types.Object) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Load" {
		return false, nil
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false, nil
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false, nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync/atomic" {
		return false, nil
	}
	tn := named.Obj().Name()
	if !atomicIntTypes[tn] && !atomicPtrTypes[tn] {
		return false, nil
	}
	id, ok := root(sel.X).(*ast.Ident)
	if !ok {
		return false, nil
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		return false, nil
	}
	return atomicIntTypes[tn], obj
}

// root strips e down to what it reads through: the identifier or call at
// the left of its selector, index, slice, dereference and type-assertion
// chain.
func root(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return e
		}
	}
}

// containsNode reports whether target is n or a descendant of n.
func containsNode(n, target ast.Node) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if m == target {
			found = true
		}
		return !found
	})
	return found
}
