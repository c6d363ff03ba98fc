// Package mmappin enforces the mmap finalizer-pinning contract from the
// feature-row tiering work: a raw row handed out by a rowStore may point
// into mmap'd memory whose finalizer unmaps it the moment the owning
// shard becomes unreachable — which, under Go's precise liveness, can
// happen while a method on that very shard is still running. Any
// function that obtains rows (calls .Row or takes the method value) must
// therefore either pin the owner with runtime.KeepAlive after the last
// row use, or be annotated `//jdvs:pinned <why the caller holds the
// pin>` when it hands rows to a caller that is contractually pinned.
//
// The checker is presence-based (a KeepAlive anywhere in the function
// satisfies it): ordering bugs stay on the human, but the one failure
// mode PR 5 actually hit — a row-dereferencing function with no pin at
// all — can't come back silently.
package mmappin

import (
	"go/ast"
	"go/types"

	"jdvs/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "mmappin",
	Doc:  "functions reading raw rowStore rows must runtime.KeepAlive the owner or be annotated //jdvs:pinned",
	Run:  run,
}

// rowStoreTypes are the type names whose Row method yields possibly
// mmap-backed memory. featMat rows are heap chunks, so it is not listed;
// the interface is, because a rowStore-typed value may be the mmap store.
var rowStoreTypes = map[string]bool{
	"rowStore": true,
	"mmapMat":  true,
}

func run(pass *analysis.Pass) error {
	type funcInfo struct {
		rowUses []ast.Node
		pinned  bool
	}
	funcs := map[ast.Node]*funcInfo{}
	var order []ast.Node
	// parentFunc records lexical nesting so a KeepAlive in an enclosing
	// function also covers closures it contains.
	parentFunc := map[ast.Node]ast.Node{}

	analysis.WithStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		switch n.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			if _, ok := funcs[n]; !ok {
				funcs[n] = &funcInfo{}
				order = append(order, n)
				if outer := analysis.EnclosingFunc(stack[:len(stack)-1]); outer != nil {
					parentFunc[n] = outer
				}
			}
			return true
		}
		fn := analysis.EnclosingFunc(stack)
		if fn == nil {
			return true
		}
		fi := funcs[fn]
		switch e := n.(type) {
		case *ast.SelectorExpr:
			if e.Sel.Name == "Row" && isRowStoreRecv(pass, e) && !isRowDecl(fn, e) {
				fi.rowUses = append(fi.rowUses, e)
			}
			if isKeepAlive(pass, e) {
				fi.pinned = true
			}
		}
		return true
	})

	for _, fn := range order {
		fi := funcs[fn]
		if len(fi.rowUses) == 0 {
			continue
		}
		covered := fi.pinned
		for p := parentFunc[fn]; !covered && p != nil; p = parentFunc[p] {
			covered = funcs[p].pinned
		}
		if covered || pass.FuncDirective(fn, "pinned") {
			continue
		}
		for _, use := range fi.rowUses {
			pass.Reportf(use.Pos(), "raw row obtained from a rowStore without pinning its owner: add runtime.KeepAlive(<owner>) after the last row use, or annotate the function //jdvs:pinned with the caller's pin")
		}
	}
	return nil
}

// isRowStoreRecv reports whether sel's receiver is (a pointer to) one of
// the row-yielding store types.
func isRowStoreRecv(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok {
		return false
	}
	t := tv.Type
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return rowStoreTypes[named.Obj().Name()]
}

// isRowDecl reports whether fn is a method on one of the store types
// themselves: the store's own implementation manages the mapping's
// lifetime and is reviewed as such, not via call-site pins.
func isRowDecl(fn ast.Node, _ *ast.SelectorExpr) bool {
	decl, ok := fn.(*ast.FuncDecl)
	if !ok || decl.Recv == nil || len(decl.Recv.List) == 0 {
		return false
	}
	t := decl.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if ix, ok := t.(*ast.IndexExpr); ok {
		t = ix.X // generic receiver
	}
	id, ok := t.(*ast.Ident)
	return ok && rowStoreTypes[id.Name]
}

// isKeepAlive reports whether sel denotes runtime.KeepAlive.
func isKeepAlive(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	return ok && fn.Name() == "KeepAlive" && fn.Pkg() != nil && fn.Pkg().Path() == "runtime"
}
