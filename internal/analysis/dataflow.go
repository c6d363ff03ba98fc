package analysis

import (
	"go/ast"
	"go/types"
)

// Reaching definitions over a function CFG: which assignments may have
// produced the value a use observes. publishorder uses it to decide
// whether the base of an element write was derived from the structure
// being published (chunks := *m.dir.Load(); chunks[i] = v writes m's
// element region).

// A DefUse holds the reaching-definition solution for one CFG.
type DefUse struct {
	cfg  *CFG
	info *types.Info

	// defsOf maps a variable to its definition sites (each an ast.Node:
	// the AssignStmt/ValueSpec/RangeStmt/IncDecStmt, or the FuncDecl/
	// FuncLit for parameters and receivers).
	defsOf map[*types.Var][]int
	sites  []defSite
	// in[b] is the bitset of definitions reaching block b's entry.
	in []bitset
}

type defSite struct {
	v    *types.Var
	node ast.Node
}

type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i/64] |= 1 << (i % 64) }
func (b bitset) clear(i int)    { b[i/64] &^= 1 << (i % 64) }
func (b bitset) has(i int) bool { return b[i/64]&(1<<(i%64)) != 0 }

func (b bitset) orChanged(o bitset) bool {
	changed := false
	for i := range b {
		n := b[i] | o[i]
		if n != b[i] {
			b[i] = n
			changed = true
		}
	}
	return changed
}

func (b bitset) clone() bitset {
	c := make(bitset, len(b))
	copy(c, b)
	return c
}

// ReachingDefs solves reaching definitions for c. The solution is cached
// per (Pass, CFG).
func (p *Pass) ReachingDefs(c *CFG) *DefUse {
	if p.defuse == nil {
		p.defuse = map[*CFG]*DefUse{}
	}
	if du, ok := p.defuse[c]; ok {
		return du
	}
	du := solveReachingDefs(c, p.TypesInfo)
	p.defuse[c] = du
	return du
}

func solveReachingDefs(c *CFG, info *types.Info) *DefUse {
	du := &DefUse{cfg: c, info: info, defsOf: map[*types.Var][]int{}}

	addSite := func(v *types.Var, node ast.Node) int {
		id := len(du.sites)
		du.sites = append(du.sites, defSite{v: v, node: node})
		du.defsOf[v] = append(du.defsOf[v], id)
		return id
	}

	// Parameters, receivers and named results define at entry.
	entryDefs := []int{}
	if fd, ok := c.Fn.(*ast.FuncDecl); ok {
		for _, fl := range fieldLists(fd) {
			for _, field := range fl.List {
				for _, name := range field.Names {
					if v, ok := info.Defs[name].(*types.Var); ok {
						entryDefs = append(entryDefs, addSite(v, c.Fn))
					}
				}
			}
		}
	} else if fl, ok := c.Fn.(*ast.FuncLit); ok {
		for _, f := range fl.Type.Params.List {
			for _, name := range f.Names {
				if v, ok := info.Defs[name].(*types.Var); ok {
					entryDefs = append(entryDefs, addSite(v, c.Fn))
				}
			}
		}
	}

	// Enumerate definition sites per block node.
	type nodeDefs struct {
		ids []int
	}
	perNode := map[ast.Node]*nodeDefs{}
	record := func(n ast.Node, id *ast.Ident) {
		v := asLocalVar(info, id)
		if v == nil {
			return
		}
		nd := perNode[n]
		if nd == nil {
			nd = &nodeDefs{}
			perNode[n] = nd
		}
		nd.ids = append(nd.ids, addSite(v, n))
	}
	for _, blk := range c.Blocks {
		for _, n := range blk.Nodes {
			collectDefs(n, func(id *ast.Ident) { record(n, id) })
		}
	}

	nDefs := len(du.sites)
	du.in = make([]bitset, len(c.Blocks))
	out := make([]bitset, len(c.Blocks))
	for i := range du.in {
		du.in[i] = newBitset(nDefs)
		out[i] = newBitset(nDefs)
	}
	for _, d := range entryDefs {
		du.in[c.Entry.Index].set(d)
	}

	transfer := func(blk *Block, state bitset) {
		for _, n := range blk.Nodes {
			nd := perNode[n]
			if nd == nil {
				continue
			}
			for _, id := range nd.ids {
				// Kill every other def of the same variable, then gen.
				for _, other := range du.defsOf[du.sites[id].v] {
					state.clear(other)
				}
				state.set(id)
			}
		}
	}

	// Worklist iteration to fixpoint: in[b] only ever grows (union over
	// predecessors' outs) and out = transfer(in) is monotone in it.
	work := make([]*Block, len(c.Blocks))
	copy(work, c.Blocks)
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		state := du.in[blk.Index].clone()
		transfer(blk, state)
		if eq(out[blk.Index], state) {
			continue
		}
		out[blk.Index] = state
		for _, s := range blk.Succs {
			if du.in[s.Index].orChanged(state) {
				work = append(work, s)
			}
		}
	}
	return du
}

func eq(a, b bitset) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// defsAt returns the definition nodes of v that may reach position pos.
func (d *DefUse) defsAt(v *types.Var, pos NodePos) []ast.Node {
	if !pos.ok {
		return nil
	}
	ids := d.defsOf[v]
	if len(ids) == 0 {
		return nil
	}
	state := d.in[pos.Block.Index].clone()
	// Replay the block prefix to the query point.
	for _, n := range pos.Block.Nodes[:pos.Index] {
		collectDefs(n, func(id *ast.Ident) {
			dv := asLocalVar(d.info, id)
			if dv == nil {
				return
			}
			for _, other := range d.defsOf[dv] {
				state.clear(other)
			}
			for _, sid := range d.defsOf[dv] {
				if d.sites[sid].node == n {
					state.set(sid)
				}
			}
		})
	}
	var nodes []ast.Node
	for _, id := range ids {
		if state.has(id) {
			nodes = append(nodes, d.sites[id].node)
		}
	}
	return nodes
}

// DerivedFrom reports whether the value of ident `use` at pos may be
// derived — through chains of local assignments — from the object root
// (a variable, typically a receiver). It walks reaching definitions
// transitively: chunks := *m.dir.Load() makes chunks derived from m.
func (d *DefUse) DerivedFrom(use *ast.Ident, pos NodePos, root types.Object) bool {
	v := asLocalVar(d.info, use)
	if obj := d.info.Uses[use]; obj == root {
		return true
	}
	if v == nil {
		return false
	}
	seen := map[*types.Var]bool{}
	var fromVar func(v *types.Var, at NodePos) bool
	fromVar = func(v *types.Var, at NodePos) bool {
		if v == root {
			return true
		}
		if seen[v] {
			return false
		}
		seen[v] = true
		for _, def := range d.defsAt(v, at) {
			rhs := rhsFor(def, v, d.info)
			if rhs == nil {
				continue
			}
			found := false
			ast.Inspect(rhs, func(n ast.Node) bool {
				if found {
					return false
				}
				if call, ok := n.(*ast.CallExpr); ok && isBuiltinAlloc(d.info, call) {
					// make/new results are fresh: a size hint such as
					// make(map[K]V, s.fwd.Len()) does not alias s.
					return false
				}
				if id, ok := n.(*ast.Ident); ok {
					if d.info.Uses[id] == root {
						found = true
						return false
					}
					if rv := asLocalVar2(d.info, id); rv != nil && rv != v {
						defPos, ok := d.cfg.pos[def]
						if ok && fromVar(rv, defPos) {
							found = true
							return false
						}
					}
				}
				return true
			})
			if found {
				return true
			}
		}
		return false
	}
	return fromVar(v, pos)
}

// isBuiltinAlloc reports whether call invokes the make or new builtin.
func isBuiltinAlloc(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && (b.Name() == "make" || b.Name() == "new")
}

// rhsFor extracts the expression assigned to v by definition node def.
func rhsFor(def ast.Node, v *types.Var, info *types.Info) ast.Expr {
	switch n := def.(type) {
	case *ast.AssignStmt:
		for i, lhs := range n.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			if asLocalVar(info, id) == v || info.Uses[id] == v {
				if len(n.Rhs) == len(n.Lhs) {
					return n.Rhs[i]
				}
				if len(n.Rhs) == 1 {
					return n.Rhs[0]
				}
			}
		}
	case *ast.ValueSpec:
		for i, name := range n.Names {
			if asLocalVar(info, name) == v {
				if i < len(n.Values) {
					return n.Values[i]
				}
			}
		}
	case *ast.RangeStmt:
		return n.X
	}
	return nil
}

// collectDefs calls fn for every identifier the node (re)defines.
func collectDefs(n ast.Node, fn func(*ast.Ident)) {
	switch s := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range s.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				fn(id)
			}
		}
	case *ast.IncDecStmt:
		if id, ok := s.X.(*ast.Ident); ok {
			fn(id)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, name := range vs.Names {
						fn(name)
					}
				}
			}
		}
	case *ast.RangeStmt:
		if id, ok := s.Key.(*ast.Ident); ok {
			fn(id)
		}
		if id, ok := s.Value.(*ast.Ident); ok {
			fn(id)
		}
	}
}

// fieldLists returns the receiver, parameter and named-result lists of a
// declaration — every identifier defined at function entry.
func fieldLists(fd *ast.FuncDecl) []*ast.FieldList {
	var out []*ast.FieldList
	if fd.Recv != nil {
		out = append(out, fd.Recv)
	}
	if fd.Type.Params != nil {
		out = append(out, fd.Type.Params)
	}
	if fd.Type.Results != nil {
		out = append(out, fd.Type.Results)
	}
	return out
}

// asLocalVar resolves id to the *types.Var it defines or assigns;
// package-level and field objects return nil (their defs cannot be
// tracked intraprocedurally).
func asLocalVar(info *types.Info, id *ast.Ident) *types.Var {
	var obj types.Object
	if o, ok := info.Defs[id]; ok {
		obj = o
	} else if o, ok := info.Uses[id]; ok {
		obj = o
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return nil
	}
	if v.Parent() != nil && v.Parent().Parent() == types.Universe {
		return nil // package scope
	}
	return v
}

// asLocalVar2 is asLocalVar restricted to uses (reads on a RHS).
func asLocalVar2(info *types.Info, id *ast.Ident) *types.Var {
	v, ok := info.Uses[id].(*types.Var)
	if !ok || v.IsField() {
		return nil
	}
	if v.Parent() != nil && v.Parent().Parent() == types.Universe {
		return nil
	}
	return v
}
