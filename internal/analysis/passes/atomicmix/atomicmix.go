// Package atomicmix enforces the first rule of the shard's lock-free
// publish protocol: a word that is ever accessed through sync/atomic is
// atomic forever. featMat, the inverted lists and every Stats counter
// publish plain writes to readers via an atomic store; a single plain
// load or store of the same word reintroduces the data race the protocol
// exists to prevent — and -race only catches it on an exercised
// interleaving.
//
// Two access styles are checked:
//
//   - Function-style atomics: any field or variable passed by address to
//     a sync/atomic function (atomic.AddInt64(&s.n, 1), ...) must be
//     accessed through sync/atomic everywhere in the package. Plain
//     reads and writes are flagged. Sites that are provably
//     pre-publication (a constructor filling a struct nothing else can
//     see yet) carry a `//jdvs:nolock <reason>` annotation.
//
//   - Typed atomics (atomic.Int64, atomic.Pointer[T], ...): the checker
//     flags uses that go around the method set — copying the value,
//     comparing it, or ranging over a slice of them — which silently
//     read the underlying word non-atomically. (go vet's copylocks
//     catches assignment copies; comparison and range escape it.)
package atomicmix

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"jdvs/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "atomicmix",
	Doc:  "flag plain accesses to words that are accessed atomically elsewhere",
	Run:  run,
}

// atomicFuncPrefixes are the sync/atomic function families that take the
// address of the word.
var atomicFuncPrefixes = []string{
	"Add", "And", "Or", "CompareAndSwap", "Load", "Store", "Swap",
}

func run(pass *analysis.Pass) error {
	atomicWords := map[types.Object]token.Pos{}

	// Pass 1: every &x handed to a sync/atomic function marks x's
	// variable as an atomic word.
	analysis.WithStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isAtomicFunc(pass, call) || len(call.Args) == 0 {
			return true
		}
		if obj := addressedVar(pass, call.Args[0]); obj != nil {
			if _, seen := atomicWords[obj]; !seen {
				atomicWords[obj] = call.Pos()
			}
		}
		return true
	})

	// Pass 2: any other use of those variables must itself be atomic.
	analysis.WithStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil {
			return true
		}
		if _, watched := atomicWords[obj]; !watched {
			return true
		}
		if ctx := classifyUse(pass, stack); ctx != "" {
			if !pass.DirectiveAt(id.Pos(), "nolock") {
				pass.Reportf(id.Pos(), "plain %s of %s, which is accessed atomically elsewhere in this package; use sync/atomic or annotate //jdvs:nolock with the publication argument", ctx, id.Name)
			}
		}
		return true
	})

	// Typed atomics: flag value-style uses that bypass the method set.
	checkTypedAtomics(pass)
	return nil
}

// isAtomicFunc reports whether call invokes a sync/atomic package-level
// function from one of the address-taking families.
func isAtomicFunc(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "sync/atomic" {
		return false
	}
	if obj.Type().(*types.Signature).Recv() != nil {
		return false // typed-atomic method, e.g. (*Int64).Add
	}
	for _, p := range atomicFuncPrefixes {
		if strings.HasPrefix(obj.Name(), p) {
			return true
		}
	}
	return false
}

// addressedVar resolves &x (through parens and indexing) to the variable
// or struct field being atomically accessed.
func addressedVar(pass *analysis.Pass, arg ast.Expr) types.Object {
	un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
	if !ok || un.Op != token.AND {
		return nil
	}
	expr := ast.Unparen(un.X)
	for {
		if ix, ok := expr.(*ast.IndexExpr); ok {
			expr = ast.Unparen(ix.X)
			continue
		}
		break
	}
	switch e := expr.(type) {
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[e]; ok && sel.Kind() == types.FieldVal {
			return sel.Obj()
		}
		return pass.TypesInfo.Uses[e.Sel]
	case *ast.Ident:
		if v, ok := pass.TypesInfo.Uses[e].(*types.Var); ok {
			return v
		}
	}
	return nil
}

// classifyUse decides whether the identifier use at the top of stack is a
// plain (non-atomic) access, returning "read"/"write" when it is and ""
// when it is a legitimate atomic operand or another allowed context.
func classifyUse(pass *analysis.Pass, stack []ast.Node) string {
	// Walk outward from the ident through the expression that denotes
	// the variable (selector/index/paren chains).
	i := len(stack) - 1
	expr := stack[i].(ast.Expr)
	for i > 0 {
		parent := stack[i-1]
		switch p := parent.(type) {
		case *ast.SelectorExpr:
			if p.Sel == expr {
				// ident is the field being selected: the denoted
				// variable is the whole selector.
				expr, i = p, i-1
				continue
			}
			if p.X == expr {
				// ident is the receiver; the watched word is accessed
				// via a further selection — not a use of the word
				// itself... unless the selection denotes the watched
				// field, handled when the Sel ident is visited.
				return ""
			}
		case *ast.IndexExpr:
			if p.X == expr {
				expr, i = p, i-1
				continue
			}
		case *ast.ParenExpr:
			expr, i = p, i-1
			continue
		}
		break
	}
	if i == 0 {
		return ""
	}
	switch p := stack[i-1].(type) {
	case *ast.UnaryExpr:
		if p.Op != token.AND {
			return "read"
		}
		// &x: legitimate when the address feeds a sync/atomic call
		// (directly — atomic.Add(&x, 1)); passing the address elsewhere
		// is allowed, the accesses through it are checked at their own
		// sites.
		return ""
	case *ast.AssignStmt:
		for _, lhs := range p.Lhs {
			if ast.Unparen(lhs) == expr {
				return "write"
			}
		}
		return "read"
	case *ast.IncDecStmt:
		return "write"
	case *ast.KeyValueExpr:
		if p.Key == expr {
			// Composite-literal field key: the literal is a fresh,
			// unpublished value.
			return ""
		}
		return "read"
	case *ast.ValueSpec, *ast.Field:
		return "" // declaration
	default:
		return "read"
	}
}

// checkTypedAtomics flags uses of sync/atomic struct types (atomic.Int64
// et al.) as plain values.
func checkTypedAtomics(pass *analysis.Pass) {
	analysis.WithStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		expr, ok := n.(ast.Expr)
		if !ok || !isTypedAtomic(pass, expr) {
			return true
		}
		// Only variable-denoting expressions; skip type names and
		// nested sub-expressions handled at their outermost node.
		switch expr.(type) {
		case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr:
		default:
			return true
		}
		if len(stack) < 2 {
			return true
		}
		switch p := stack[len(stack)-2].(type) {
		case *ast.SelectorExpr:
			// p.X == expr: method access (x.counter.Load()); p.Sel ==
			// expr: the enclosing selector denotes the same value and is
			// classified itself.
			return true
		case *ast.UnaryExpr:
			if p.Op == token.AND {
				return true // &x.counter: pointer use is fine
			}
		case *ast.IndexExpr:
			if p.X == expr {
				return true // elem of an atomic-typed array: ring[i]
			}
		case *ast.ValueSpec, *ast.Field, *ast.CompositeLit, *ast.ArrayType, *ast.StarExpr, *ast.MapType, *ast.ChanType, *ast.FuncType:
			return true // type or declaration position
		case *ast.RangeStmt:
			return true // range-value copies are reported separately
		}
		if pass.DirectiveAt(expr.Pos(), "nolock") {
			return true
		}
		pass.Reportf(expr.Pos(), "sync/atomic value used as a plain value (copied or compared); go through its method set")
		return true
	})

	// Ranging over a slice/array of atomics copies each element.
	analysis.WithStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok || rng.Value == nil {
			return true
		}
		var vt types.Type
		if id, ok := rng.Value.(*ast.Ident); ok {
			if def := pass.TypesInfo.Defs[id]; def != nil {
				vt = def.Type()
			} else if use := pass.TypesInfo.Uses[id]; use != nil {
				vt = use.Type()
			}
		} else if tv, ok := pass.TypesInfo.Types[rng.Value]; ok {
			vt = tv.Type
		}
		if vt != nil && isAtomicNamed(vt) {
			if !pass.DirectiveAt(rng.Value.Pos(), "nolock") {
				pass.Reportf(rng.Value.Pos(), "range value copies sync/atomic elements; range over indices instead")
			}
		}
		return true
	})
}

func isTypedAtomic(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.IsType() || !tv.IsValue() {
		return false
	}
	return isAtomicNamed(tv.Type)
}

func isAtomicNamed(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}
