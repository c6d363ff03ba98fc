package analysis

import (
	"go/ast"
	"go/types"
	"testing"
)

// findIdentUse locates the i-th use (0-based) of name inside fn,
// returning the ident and its ancestor stack.
func findIdentUse(t *testing.T, fn *ast.FuncDecl, info *types.Info, name string, nth int) (*ast.Ident, []ast.Node) {
	t.Helper()
	var stack []ast.Node
	var id *ast.Ident
	var result []ast.Node
	count := 0
	ast.Inspect(fn, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		stack = append(stack, n)
		if x, ok := n.(*ast.Ident); ok && x.Name == name && id == nil {
			if _, isUse := info.Uses[x]; isUse {
				if count == nth {
					id = x
					result = append([]ast.Node(nil), stack...)
				}
				count++
			}
		}
		return true
	})
	if id == nil {
		t.Fatalf("use #%d of %q not found", nth, name)
	}
	return id, result
}

func TestAliasingParamTaint(t *testing.T) {
	src := `
type R struct {
	Hits    []int
	Scanned int
}

func tainted(r *R) *R {
	out := r
	return out
}

func deepCopied(r *R) *R {
	cp := *r
	cp.Hits = append([]int(nil), r.Hits...)
	return &cp
}
`
	_, info, fn := parseFunc(t, src, "tainted")
	cfg := BuildCFG(fn)
	al := solveAliasing(cfg, info)
	use, stack := findIdentUse(t, fn, info, "out", 0) // return out
	os := al.OriginsAt(use, stack)
	if !hasKind(os, OriginParam) {
		t.Errorf("out aliases the parameter; origins = %v", kinds(os))
	}

	_, info2, fn2 := parseFunc(t, src, "deepCopied")
	cfg2 := BuildCFG(fn2)
	al2 := solveAliasing(cfg2, info2)
	// The &cp in `return &cp`.
	var addr ast.Expr
	var addrStack []ast.Node
	var walkStack []ast.Node
	ast.Inspect(fn2, func(n ast.Node) bool {
		if n == nil {
			walkStack = walkStack[:len(walkStack)-1]
			return false
		}
		walkStack = append(walkStack, n)
		if u, ok := n.(*ast.UnaryExpr); ok && addr == nil {
			addr = u
			addrStack = append([]ast.Node(nil), walkStack...)
		}
		return true
	})
	os2 := al2.OriginsAt(addr, addrStack)
	if hasKind(os2, OriginParam) {
		t.Errorf("the deep-copy idiom must clear parameter taint; origins = %v", kinds(os2))
	}
}

func TestAliasingPartialCopyStaysTainted(t *testing.T) {
	// The PR 9 bug shape: copying the struct but NOT cloning the slice
	// field leaves the field aliased to the parameter.
	src := `
type R struct {
	Hits    []int
	Scanned int
}

func shallow(r *R) *R {
	cp := *r
	return &cp
}
`
	_, info, fn := parseFunc(t, src, "shallow")
	cfg := BuildCFG(fn)
	al := solveAliasing(cfg, info)
	var addr ast.Expr
	var addrStack, walkStack []ast.Node
	ast.Inspect(fn, func(n ast.Node) bool {
		if n == nil {
			walkStack = walkStack[:len(walkStack)-1]
			return false
		}
		walkStack = append(walkStack, n)
		if u, ok := n.(*ast.UnaryExpr); ok && addr == nil {
			addr = u
			addrStack = append([]ast.Node(nil), walkStack...)
		}
		return true
	})
	os := al.OriginsAt(addr, addrStack)
	if !hasKind(os, OriginParam) && !hasKind(os, OriginUnknown) {
		t.Errorf("a shallow struct copy retains the parameter's slice state; origins = %v", kinds(os))
	}
}

func TestAliasingElemOrigin(t *testing.T) {
	src := `
func f(resps []*int) {
	v := resps[0]
	_ = v
}
`
	_, info, fn := parseFunc(t, src, "f")
	cfg := BuildCFG(fn)
	al := solveAliasing(cfg, info)
	use, stack := findIdentUse(t, fn, info, "v", 0) // _ = v
	os := al.OriginsAt(use, stack)
	if !hasKind(os, OriginElem) {
		t.Errorf("an indexed load must carry the slice-element origin; origins = %v", kinds(os))
	}
}

func hasKind(os originSet, k OriginKind) bool {
	for o := range os {
		if o.Kind == k {
			return true
		}
	}
	return false
}

func kinds(os originSet) []string {
	var out []string
	for o := range os {
		out = append(out, o.Kind.String())
	}
	return out
}
