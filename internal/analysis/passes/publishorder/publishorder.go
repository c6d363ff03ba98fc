// Package publishorder checks the ordering half of the shard's lock-free
// publish protocol; the typed atomics carry the atomicity half, since a
// plain read of an atomic.Uint32 does not compile. featMat,
// codeBlocks, the inverted lists and the COW category bitmaps all share
// one shape: a writer fills an element region with plain stores, then
// publishes it with a single atomic store of the length (or a pointer
// swap); readers load the length first and never index past it. The
// protocol is correct only if the order holds on every path:
//
//   - Writers: after the publishing store of a structure, no plain write
//     to that structure's element region — and no atomic pointer store on
//     it — may execute before the next publish. A write after the publish
//     is visible to readers admitted by the new length without any
//     happens-before edge. Storing length 0 is the inverse operation
//     ("unpublish": snapshot load, teardown) and re-opens the region for
//     writes until the next publish.
//
//   - Readers: in a function that loads both the atomic length and the
//     atomic chunk-directory pointer of the same structure, the length
//     must be loaded first on every path. Loading the directory first
//     admits torn pairs: a grow() may swap the directory between the two
//     loads, and the length bound then indexes the wrong backing.
//
// Loop iterations are handled by ignoring paths through loop back edges:
// a write in iteration i+1 naturally executes after the store that
// published iteration i and is not a violation.
//
// The escape hatch is `//jdvs:publish-ok <reason>` on the flagged line
// (or the line above); the reason must name the fence or exclusion that
// makes the reorder safe.
package publishorder

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"jdvs/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "publishorder",
	Doc:  "check element writes precede atomic publish stores and length loads precede directory loads",
	Run:  run,
}

const directive = "publish-ok"

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

// An atomicOp is one method call on a sync/atomic value: its CFG
// position, the root object the atomic lives under (the receiver of
// m.length.Store), and its classification.
type atomicOp struct {
	call *ast.CallExpr
	pos  analysis.NodePos
	base types.Object
	arg  ast.Expr // Store argument, nil for Load
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	var (
		intStores []atomicOp // length publishes / unpublishes
		ptrStores []atomicOp
		intLoads  []atomicOp
		ptrLoads  []atomicOp
	)
	cfg := pass.FuncCFG(fn)

	analysis.WithStack([]*ast.File{fileOf(pass, fn)}, func(n ast.Node, stack []ast.Node) bool {
		if n == fn {
			return true
		}
		if fd, ok := n.(*ast.FuncDecl); ok && fd != fn {
			return false // other top-level decls
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false // nested literals get their own CFGs; keep this one intraprocedural
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		kind, method, base := atomicCall(pass, call)
		if base == nil || !withinFunc(fn, n) {
			return true
		}
		op := atomicOp{call: call, pos: cfg.NodePos(call, stack), base: base}
		switch {
		case kind == "int" && method == "Store":
			if len(call.Args) == 1 {
				op.arg = call.Args[0]
			}
			intStores = append(intStores, op)
		case kind == "ptr" && (method == "Store" || method == "Swap" || method == "CompareAndSwap"):
			ptrStores = append(ptrStores, op)
		case kind == "int" && method == "Load":
			intLoads = append(intLoads, op)
		case kind == "ptr" && method == "Load":
			ptrLoads = append(ptrLoads, op)
		}
		return true
	})

	checkWriter(pass, fn, cfg, intStores, ptrStores)
	checkReader(pass, fn, cfg, intLoads, ptrLoads)
}

// bodyLocal reports whether obj is declared inside fn's body. A publish
// on a body-local structure is a constructor or snapshot builder filling
// an object no reader can reach yet; receivers, parameters and globals
// are the shared structures the protocol governs.
func bodyLocal(fn *ast.FuncDecl, obj types.Object) bool {
	return obj.Pos() >= fn.Body.Pos() && obj.Pos() < fn.Body.End()
}

// checkWriter flags element writes and pointer stores that may execute
// after a publish of the same structure, with no unpublish in between.
func checkWriter(pass *analysis.Pass, fn *ast.FuncDecl, cfg *analysis.CFG, intStores, ptrStores []atomicOp) {
	if len(intStores) == 0 {
		return
	}
	du := pass.ReachingDefs(cfg)

	// Publishes store a value that may be non-zero; unpublishes store a
	// constant zero.
	var publishes []atomicOp
	isUnpublish := func(n ast.Node) bool {
		for _, s := range intStores {
			if s.arg != nil && isConstZero(pass, s.arg) && containsNode(n, s.call) {
				return true
			}
		}
		return false
	}
	for _, s := range intStores {
		if s.arg != nil && !isConstZero(pass, s.arg) && s.pos.Valid() && !bodyLocal(fn, s.base) {
			publishes = append(publishes, s)
		}
	}
	if len(publishes) == 0 {
		return
	}

	// Element writes: assignments through an index expression (or copy()
	// into one) whose base derives from the published structure.
	var walkStack []ast.Node
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if n == nil {
			walkStack = walkStack[:len(walkStack)-1]
			return false
		}
		walkStack = append(walkStack, n)
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		stack := walkStack
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				if root := indexWriteRoot(lhs); root != nil {
					checkElemWrite(pass, cfg, du, publishes, isUnpublish, root, lhs.Pos(), stack)
				}
			}
		case *ast.CallExpr:
			if id, ok := s.Fun.(*ast.Ident); ok && id.Name == "copy" && len(s.Args) == 2 {
				if root := sliceRoot(s.Args[0]); root != nil {
					checkElemWrite(pass, cfg, du, publishes, isUnpublish, root, s.Pos(), stack)
				}
			}
		}
		return true
	})

	// Atomic pointer stores on the same base after its publish swap the
	// directory out from under already-admitted readers.
	for _, ps := range ptrStores {
		if !ps.pos.Valid() {
			continue
		}
		for _, pub := range publishes {
			if pub.base != ps.base {
				continue
			}
			if cfg.ReachableAfterAvoiding(pub.pos, ps.pos, isUnpublish) {
				if !pass.DirectiveAt(ps.call.Pos(), directive) {
					pass.Reportf(ps.call.Pos(),
						"atomic pointer store on %s may execute after its publishing length store; swap the directory before publishing, or annotate //jdvs:publish-ok with the exclusion argument",
						baseName(ps.base))
				}
				break
			}
		}
	}
}

func checkElemWrite(pass *analysis.Pass, cfg *analysis.CFG, du *analysis.DefUse, publishes []atomicOp, isUnpublish func(ast.Node) bool, root *ast.Ident, at token.Pos, stack []ast.Node) {
	wpos := cfg.NodePos(root, stack)
	if !wpos.Valid() {
		return
	}
	for _, pub := range publishes {
		if !du.DerivedFrom(root, wpos, pub.base) {
			continue
		}
		if cfg.ReachableAfterAvoiding(pub.pos, wpos, isUnpublish) {
			if !pass.DirectiveAt(at, directive) {
				pass.Reportf(at,
					"plain write to the element region of %s may execute after its publishing atomic store; readers admitted by the new length can observe it without a happens-before edge — write before the publish, or annotate //jdvs:publish-ok with the fence argument",
					baseName(pub.base))
			}
			return
		}
	}
}

// checkReader flags directory-pointer loads reachable before any length
// load of the same structure.
func checkReader(pass *analysis.Pass, fn *ast.FuncDecl, cfg *analysis.CFG, intLoads, ptrLoads []atomicOp) {
	if len(intLoads) == 0 || len(ptrLoads) == 0 {
		return
	}
	du := pass.ReachingDefs(cfg)
	indexRoots := collectIndexRoots(cfg, fn)
	// The load-order invariant bounds element access; a function that
	// never indexes data derived from the base (a stats snapshot loading
	// a pointer and a watermark, say) has no bound to violate.
	indexesBase := func(base types.Object) bool {
		for _, ir := range indexRoots {
			if du.DerivedFrom(ir.root, ir.pos, base) {
				return true
			}
		}
		return false
	}
	for _, pl := range ptrLoads {
		if !pl.pos.Valid() {
			continue
		}
		// Only structures whose length is also consulted in this
		// function are in scope: pairing by base keeps per-segment
		// lengths (inverted) and writer-context-only helpers out.
		var lengthLoads []atomicOp
		for _, il := range intLoads {
			if il.base == pl.base {
				lengthLoads = append(lengthLoads, il)
			}
		}
		if len(lengthLoads) == 0 || !indexesBase(pl.base) {
			continue
		}
		isLenLoad := func(n ast.Node) bool {
			for _, il := range lengthLoads {
				if containsNode(n, il.call) {
					return true
				}
			}
			return false
		}
		if cfg.PathToAvoiding(pl.pos, isLenLoad) {
			if !pass.DirectiveAt(pl.call.Pos(), directive) {
				pass.Reportf(pl.call.Pos(),
					"directory pointer of %s is loaded before its atomic length on some path; load the length first so the bound matches the backing, or annotate //jdvs:publish-ok with the exclusion argument",
					baseName(pl.base))
			}
		}
	}
}

// indexRoot is the root identifier of one index or slice expression in a
// function body, with its CFG position for dataflow queries.
type indexRoot struct {
	root *ast.Ident
	pos  analysis.NodePos
}

// collectIndexRoots gathers the roots of every index/slice expression in
// fn (reads and writes alike), skipping nested function literals.
func collectIndexRoots(cfg *analysis.CFG, fn *ast.FuncDecl) []indexRoot {
	var roots []indexRoot
	var walkStack []ast.Node
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if n == nil {
			walkStack = walkStack[:len(walkStack)-1]
			return false
		}
		walkStack = append(walkStack, n)
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		var base ast.Expr
		switch x := n.(type) {
		case *ast.IndexExpr:
			base = x.X
		case *ast.SliceExpr:
			base = x.X
		default:
			return true
		}
		if root := rootIdent(base); root != nil {
			if pos := cfg.NodePos(root, walkStack); pos.Valid() {
				roots = append(roots, indexRoot{root: root, pos: pos})
			}
		}
		return true
	})
	return roots
}

// atomicCall classifies call as a method on a sync/atomic value and
// returns ("int"|"ptr", method, root object), or zeroes.
func atomicCall(pass *analysis.Pass, call *ast.CallExpr) (kind, method string, base types.Object) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", "", nil
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", "", nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", "", nil
	}
	named := namedOf(sig.Recv().Type())
	if named == nil || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync/atomic" {
		return "", "", nil
	}
	tn := named.Obj().Name()
	switch {
	case atomicIntTypes[tn]:
		kind = "int"
	case atomicPtrTypes[tn]:
		kind = "ptr"
	default:
		return "", "", nil
	}
	root := rootIdent(sel.X)
	if root == nil {
		return "", "", nil
	}
	obj := pass.TypesInfo.Uses[root]
	if obj == nil {
		return "", "", nil
	}
	return kind, fn.Name(), obj
}

func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// rootIdent returns the leftmost identifier of a selector/index chain.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// indexWriteRoot returns the root identifier when lhs writes through an
// index expression (chunks[ci].rows[off] = v, l.data[pos] = id).
func indexWriteRoot(lhs ast.Expr) *ast.Ident {
	hasIndex := false
	e := lhs
loop:
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			hasIndex = true
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			break loop
		}
	}
	if !hasIndex {
		return nil
	}
	return rootIdent(lhs)
}

// sliceRoot returns the root identifier of a slice-typed expression
// (the copy() destination), unwrapping slicing.
func sliceRoot(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SliceExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		default:
			return rootIdent(e)
		}
	}
}

func isConstZero(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	v, ok := constant.Int64Val(tv.Value)
	return ok && v == 0
}

// containsNode reports whether target is n or a descendant of n.
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

func withinFunc(fn *ast.FuncDecl, n ast.Node) bool {
	return n.Pos() >= fn.Body.Pos() && n.End() <= fn.Body.End()
}

func baseName(o types.Object) string { return o.Name() }

func fileOf(pass *analysis.Pass, n ast.Node) *ast.File {
	for _, f := range pass.Files {
		if n.Pos() >= f.Pos() && n.End() <= f.End() {
			return f
		}
	}
	return nil
}
