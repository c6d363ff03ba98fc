package analysis

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// parseFunc type-checks src (a complete file body without the package
// clause) and returns the named function plus the supporting machinery.
func parseFunc(t *testing.T, src, name string) (*token.FileSet, *types.Info, *ast.FuncDecl) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "a.go", "package p\n\n"+src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: importer.Default(), Error: func(error) {}}
	if _, err := conf.Check("p", fset, []*ast.File{file}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fset, info, fd
		}
	}
	t.Fatalf("no func %s", name)
	return nil, nil, nil
}

// findCall locates the CallExpr whose source text contains want.
func findCall(t *testing.T, fset *token.FileSet, fn *ast.FuncDecl, want string) (*ast.CallExpr, []ast.Node) {
	t.Helper()
	var call *ast.CallExpr
	var stack, result []ast.Node
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		stack = append(stack, n)
		if c, ok := n.(*ast.CallExpr); ok && call == nil {
			if id, ok := c.Fun.(*ast.Ident); ok && id.Name == want {
				call = c
				result = append([]ast.Node(nil), stack...)
			}
			if sel, ok := c.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == want {
				call = c
				result = append([]ast.Node(nil), stack...)
			}
		}
		return true
	}
	ast.Inspect(fn, walk)
	if call == nil {
		t.Fatalf("no call %s in %s", want, fn.Name.Name)
	}
	return call, result
}

// never avoids no node: reachableAfter with it asks plain reachability,
// and PathToAvoiding whether any path from entry reaches a node.
func never(ast.Node) bool { return false }

// reachableAfter reports whether dst can execute after src on a path that
// runs no node for which avoid returns true: the probe the builder's
// cases below are written against.
func reachableAfter(c *CFG, src, dst NodePos, avoid func(ast.Node) bool) bool {
	type at struct {
		b *Block
		i int // first node of b still to run
	}
	seen := make([]bool, len(c.Blocks))
	queue := []at{{src.Block, src.Index + 1}}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		blocked := false
		for i := p.i; i < len(p.b.Nodes) && !blocked; i++ {
			if p.b == dst.Block && i == dst.Index {
				return true
			}
			blocked = avoid(p.b.Nodes[i])
		}
		if blocked {
			continue
		}
		for _, s := range p.b.Succs {
			if !seen[s.Index] {
				seen[s.Index] = true
				queue = append(queue, at{s, 0})
			}
		}
	}
	return false
}

// callTo returns an avoid predicate matching nodes that call name.
func callTo(name string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		found := false
		ast.Inspect(n, func(m ast.Node) bool {
			if c, ok := m.(*ast.CallExpr); ok {
				if id, ok := c.Fun.(*ast.Ident); ok && id.Name == name {
					found = true
				}
			}
			return !found
		})
		return found
	}
}

func TestCFGOrdering(t *testing.T) {
	src := `
func f(cond bool) {
	a()
	if cond {
		b()
		return
	}
	c()
	d()
}
func a() {}
func b() {}
func c() {}
func d() {}
`
	fset, _, fn := parseFunc(t, src, "f")
	cfg := BuildCFG(fn)

	a, as := findCall(t, fset, fn, "a")
	b, bs := findCall(t, fset, fn, "b")
	c, cs := findCall(t, fset, fn, "c")
	d, ds := findCall(t, fset, fn, "d")
	pa, pb := cfg.NodePos(a, as), cfg.NodePos(b, bs)
	pc, pd := cfg.NodePos(c, cs), cfg.NodePos(d, ds)
	for i, p := range []NodePos{pa, pb, pc, pd} {
		if !p.Valid() {
			t.Fatalf("call %d did not resolve to a CFG position", i)
		}
	}

	if !reachableAfter(cfg, pa, pb, never) || !reachableAfter(cfg, pa, pc, never) {
		t.Errorf("b and c must be reachable after a")
	}
	if reachableAfter(cfg, pb, pc, never) {
		t.Errorf("c must not be reachable after b (b's branch returns)")
	}
	if reachableAfter(cfg, pc, pb, never) {
		t.Errorf("b must not be reachable after c")
	}
	if !reachableAfter(cfg, pc, pd, never) {
		t.Errorf("d must be reachable after c")
	}
}

// TestCFGPathAvoiding: an early return leaves the function by its own
// edge, so a call placed after the if is skipped on that path.
func TestCFGPathAvoiding(t *testing.T) {
	src := `
func covered(cond bool) {
	get()
	if cond {
		put()
		return
	}
	put()
}
func leaky(cond bool) {
	get()
	if cond {
		return
	}
	put()
}
func get() {}
func put() {}
`
	firstReturn := func(fn *ast.FuncDecl) (ret *ast.ReturnStmt) {
		ast.Inspect(fn, func(n ast.Node) bool {
			if r, ok := n.(*ast.ReturnStmt); ok && ret == nil {
				ret = r
			}
			return ret == nil
		})
		return ret
	}
	for _, tc := range []struct {
		fn   string
		skip bool
	}{{"covered", false}, {"leaky", true}} {
		fset, _, fn := parseFunc(t, src, tc.fn)
		cfg := BuildCFG(fn)
		g, gs := findCall(t, fset, fn, "get")
		ret := cfg.NodePos(firstReturn(fn), nil)
		if got := reachableAfter(cfg, cfg.NodePos(g, gs), ret, callTo("put")); got != tc.skip {
			t.Errorf("%s: return reachable from get without put = %v, want %v", tc.fn, got, tc.skip)
		}
	}
}

func TestCFGPathToAvoiding(t *testing.T) {
	src := `
func reader(cond bool) {
	if cond {
		loadLen()
	}
	loadDir()
}
func ordered() {
	loadLen()
	loadDir()
}
func loadLen() {}
func loadDir() {}
`
	isLen := callTo("loadLen")

	fset, _, fn := parseFunc(t, src, "reader")
	cfg := BuildCFG(fn)
	d, ds := findCall(t, fset, fn, "loadDir")
	if !cfg.PathToAvoiding(cfg.NodePos(d, ds), isLen) {
		t.Errorf("reader: the cond=false path reaches loadDir with no loadLen")
	}

	fset2, _, fn2 := parseFunc(t, src, "ordered")
	cfg2 := BuildCFG(fn2)
	d2, ds2 := findCall(t, fset2, fn2, "loadDir")
	if cfg2.PathToAvoiding(cfg2.NodePos(d2, ds2), isLen) {
		t.Errorf("ordered: loadLen always precedes loadDir")
	}
}

func TestCFGSelectAndDefer(t *testing.T) {
	src := `
func f(ch chan int, done chan struct{}) {
	defer cleanup()
	select {
	case v := <-ch:
		use(v)
	case <-done:
		return
	}
	tail()
}
func cleanup() {}
func use(int) {}
func tail() {}
`
	fset, _, fn := parseFunc(t, src, "f")
	cfg := BuildCFG(fn)
	c, cs := findCall(t, fset, fn, "cleanup")
	u, us := findCall(t, fset, fn, "use")
	tl, ts := findCall(t, fset, fn, "tail")
	pc, pu, pt := cfg.NodePos(c, cs), cfg.NodePos(u, us), cfg.NodePos(tl, ts)
	if !pc.Valid() || !pu.Valid() || !pt.Valid() {
		t.Fatal("defer or select-branch calls did not resolve")
	}
	// The defer statement is a plain node where it stands: the select
	// follows it.
	if !reachableAfter(cfg, pc, pu, never) {
		t.Errorf("the select branch must be reachable after the defer")
	}
	if !reachableAfter(cfg, pu, pt, never) {
		t.Errorf("tail must be reachable after the first select branch")
	}
	// The <-done branch returns, so tail is reached only through use.
	if cfg.PathToAvoiding(pt, callTo("use")) {
		t.Errorf("tail must not be reachable without passing use")
	}
}

func TestCFGPanicEdge(t *testing.T) {
	src := `
func f(cond bool) {
	get()
	if cond {
		panic("boom")
		dead()
	}
	put()
}
func get() {}
func dead() {}
func put() {}
`
	fset, _, fn := parseFunc(t, src, "f")
	cfg := BuildCFG(fn)
	g, gs := findCall(t, fset, fn, "get")
	p, ps := findCall(t, fset, fn, "panic")
	d, ds := findCall(t, fset, fn, "dead")
	u, us := findCall(t, fset, fn, "put")
	pp, pu := cfg.NodePos(p, ps), cfg.NodePos(u, us)
	// The panic edges to Exit: nothing after it runs, in its block or
	// after the if.
	if cfg.PathToAvoiding(cfg.NodePos(d, ds), never) {
		t.Errorf("the call after panic must be unreachable")
	}
	if reachableAfter(cfg, pp, pu, never) {
		t.Errorf("put must not be reachable after the panic")
	}
	// The cond=false path still reaches put, and only a panic skips it.
	if !reachableAfter(cfg, cfg.NodePos(g, gs), pu, callTo("panic")) {
		t.Errorf("put must be reachable after get on the path that does not panic")
	}
}

func TestCFGSwitchFallthrough(t *testing.T) {
	src := `
func f(x int) {
	switch x {
	case 0:
		a()
		fallthrough
	case 1:
		b()
	default:
		c()
	}
}
func a() {}
func b() {}
func c() {}
`
	fset, _, fn := parseFunc(t, src, "f")
	cfg := BuildCFG(fn)
	a, as := findCall(t, fset, fn, "a")
	b, bs := findCall(t, fset, fn, "b")
	c, cs := findCall(t, fset, fn, "c")
	pa, pb, pc := cfg.NodePos(a, as), cfg.NodePos(b, bs), cfg.NodePos(c, cs)
	if !reachableAfter(cfg, pa, pb, never) {
		t.Errorf("fallthrough: b must be reachable after a")
	}
	if reachableAfter(cfg, pa, pc, never) {
		t.Errorf("default must not be reachable after case 0's body")
	}
}

func TestNodePosClimbsStack(t *testing.T) {
	src := `
func f() int {
	return g() + 1
}
func g() int { return 0 }
`
	fset, _, fn := parseFunc(t, src, "f")
	cfg := BuildCFG(fn)
	call, stack := findCall(t, fset, fn, "g")
	// The call itself is not a registered node; its ReturnStmt is.
	pos := cfg.NodePos(call, stack)
	if !pos.Valid() {
		t.Fatal("NodePos must climb the stack to the enclosing statement")
	}
	if _, ok := pos.Block.Nodes[pos.Index].(*ast.ReturnStmt); !ok {
		t.Errorf("resolved to %T, want *ast.ReturnStmt", pos.Block.Nodes[pos.Index])
	}
}
