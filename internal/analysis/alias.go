package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// A simple may-alias / escape lattice over a function CFG, built for the
// aliasshare contract: a value handed to another consumer (a cache, a
// waiter channel, a second slot of a shared result slice) must not
// retain mutable slice/map state the producer — or a sibling consumer —
// can still reach. The abstraction tracks, per local variable, the set
// of Origins its mutable backing state may alias:
//
//   - OriginFresh: allocated at a known site in this function (make,
//     new, composite literal, a call result, append onto a nil slice, an
//     explicit clone). Fresh state has exactly one owner until shared.
//   - OriginParam / OriginField / OriginGlobal: state reachable through
//     a parameter, a receiver/struct field, or a package-level variable
//     — the producer (or its callers) retain access.
//   - OriginElem: an element of a tracked local slice; two loads of
//     elements of the same slice may alias each other, which is exactly
//     the PR 9 batch-dedup shape (resps[i] = resps[j]).
//
// Struct values additionally track per-field origins for their
// reference-typed fields, so the blessed deep-copy idiom
//
//	cp := *r
//	cp.Hits = append([]core.Hit(nil), r.Hits...)
//
// analyzes as fresh: the dereference copies r's interior aliasing onto
// cp's fields, and the append of a cloned slice kills it field by field.
// Calls are assumed to return fresh state; interface values (error) are
// treated as alias-free. Both choices under-report by design — the
// analyzers built on this lattice gate hard CI, so a false positive
// costs more than a miss.

// OriginKind classifies where aliased state may live.
type OriginKind uint8

const (
	OriginFresh OriginKind = iota
	OriginParam
	OriginField
	OriginGlobal
	OriginElem
	OriginUnknown
)

func (k OriginKind) String() string {
	switch k {
	case OriginFresh:
		return "fresh"
	case OriginParam:
		return "parameter"
	case OriginField:
		return "field"
	case OriginGlobal:
		return "package variable"
	case OriginElem:
		return "slice element"
	default:
		return "unknown"
	}
}

// An Origin is one abstract source of mutable state.
type Origin struct {
	Kind OriginKind
	// Obj names the root: the parameter/receiver/global variable, or the
	// slice variable for OriginElem. Nil for fresh/unknown.
	Obj types.Object
	// LoopVariant marks an OriginElem indexed by a variable assigned
	// inside the sink's enclosing loop: each iteration names a distinct
	// element, so fanning such elements out one per waiter is not
	// sharing.
	LoopVariant bool
}

// originSet is a small set of origins.
type originSet map[Origin]struct{}

func (s originSet) add(o Origin) { s[o] = struct{}{} }

func (s originSet) union(o originSet) originSet {
	if len(o) == 0 {
		return s
	}
	if s == nil {
		s = originSet{}
	}
	for k := range o {
		s[k] = struct{}{}
	}
	return s
}

func (s originSet) clone() originSet {
	c := make(originSet, len(s))
	for k := range s {
		c[k] = struct{}{}
	}
	return c
}

// valueTaint abstracts one variable's aliasing: the origins of the value
// itself (for pointer/slice/map-typed variables) plus per-field origins
// for struct-typed variables whose fields carry references.
type valueTaint struct {
	origins originSet
	fields  map[string]originSet
}

func (t *valueTaint) clone() *valueTaint {
	if t == nil {
		return nil
	}
	c := &valueTaint{origins: t.origins.clone()}
	if t.fields != nil {
		c.fields = make(map[string]originSet, len(t.fields))
		for k, v := range t.fields {
			c.fields[k] = v.clone()
		}
	}
	return c
}

// all returns every origin reachable through the value: its own plus its
// tracked fields'.
func (t *valueTaint) all() originSet {
	if t == nil {
		return nil
	}
	out := t.origins.clone()
	if out == nil {
		out = originSet{}
	}
	for _, fs := range t.fields {
		out = out.union(fs)
	}
	return out
}

// merge unions o into t, reporting change (for the fixpoint).
func (t *valueTaint) merge(o *valueTaint) bool {
	if o == nil {
		return false
	}
	changed := false
	for k := range o.origins {
		if _, ok := t.origins[k]; !ok {
			if t.origins == nil {
				t.origins = originSet{}
			}
			t.origins.add(k)
			changed = true
		}
	}
	for f, os := range o.fields {
		if t.fields == nil {
			t.fields = map[string]originSet{}
		}
		cur := t.fields[f]
		for k := range os {
			if _, ok := cur[k]; !ok {
				if cur == nil {
					cur = originSet{}
					t.fields[f] = cur
				}
				cur.add(k)
				changed = true
			}
		}
	}
	return changed
}

// aliasState maps tracked locals to their taint at one program point.
type aliasState map[*types.Var]*valueTaint

func (s aliasState) clone() aliasState {
	c := make(aliasState, len(s))
	for k, v := range s {
		c[k] = v.clone()
	}
	return c
}

func (s aliasState) mergeFrom(o aliasState) bool {
	changed := false
	for v, t := range o {
		cur, ok := s[v]
		if !ok {
			s[v] = t.clone()
			changed = true
			continue
		}
		if cur.merge(t) {
			changed = true
		}
	}
	return changed
}

// Aliasing is the per-function fixpoint solution: block-entry states
// plus the evaluator analyzers query at sink positions.
type Aliasing struct {
	cfg  *CFG
	info *types.Info
	in   []aliasState
}

// FuncAliasing solves the alias lattice for c, cached per (Pass, CFG).
func (p *Pass) FuncAliasing(c *CFG) *Aliasing {
	if p.aliasing == nil {
		p.aliasing = map[*CFG]*Aliasing{}
	}
	if a, ok := p.aliasing[c]; ok {
		return a
	}
	a := solveAliasing(c, p.TypesInfo)
	p.aliasing[c] = a
	return a
}

func solveAliasing(c *CFG, info *types.Info) *Aliasing {
	a := &Aliasing{cfg: c, info: info, in: make([]aliasState, len(c.Blocks))}
	for i := range a.in {
		a.in[i] = aliasState{}
	}
	work := make([]*Block, len(c.Blocks))
	copy(work, c.Blocks)
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		state := a.in[blk.Index].clone()
		for _, n := range blk.Nodes {
			a.transfer(state, n)
		}
		for _, s := range blk.Succs {
			if a.in[s.Index].mergeFrom(state) {
				work = append(work, s)
			}
		}
	}
	return a
}

// OriginsAt evaluates expr's origins at its CFG position, resolved from
// stack (a WithStack ancestor stack containing the node).
func (a *Aliasing) OriginsAt(expr ast.Expr, stack []ast.Node) originSet {
	pos := a.cfg.NodePos(expr, stack)
	if !pos.Valid() {
		return originSet{Origin{Kind: OriginUnknown}: {}}
	}
	state := a.in[pos.Block.Index].clone()
	for _, n := range pos.Block.Nodes[:pos.Index] {
		a.transfer(state, n)
	}
	return a.eval(state, expr).all()
}

// transfer applies one node's assignments to state.
func (a *Aliasing) transfer(state aliasState, n ast.Node) {
	switch s := n.(type) {
	case *ast.AssignStmt:
		if len(s.Lhs) == len(s.Rhs) {
			// Evaluate all RHS before assigning (tuple semantics).
			vals := make([]*valueTaint, len(s.Rhs))
			for i := range s.Rhs {
				vals[i] = a.eval(state, s.Rhs[i])
			}
			for i, lhs := range s.Lhs {
				a.assign(state, lhs, vals[i])
			}
			return
		}
		// Multi-value RHS (call, map index, receive): call results are
		// fresh; others conservative.
		for _, lhs := range s.Lhs {
			a.assign(state, lhs, &valueTaint{origins: originSet{Origin{Kind: OriginFresh}: {}}})
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					var t *valueTaint
					if i < len(vs.Values) {
						t = a.eval(state, vs.Values[i])
					} else {
						t = &valueTaint{origins: originSet{Origin{Kind: OriginFresh}: {}}}
					}
					a.assign(state, name, t)
				}
			}
		}
	case *ast.RangeStmt:
		// Key is an index (no aliasing); value aliases elements of X.
		if id, ok := s.Value.(*ast.Ident); ok {
			xt := a.eval(state, s.X)
			elemOrigins := originSet{}
			if root := rootVarOf(a.info, s.X); root != nil {
				elemOrigins.add(Origin{Kind: OriginElem, Obj: root})
			} else {
				elemOrigins = xt.all()
			}
			a.assign(state, id, &valueTaint{origins: elemOrigins})
		}
	}
}

// assign stores taint into an lvalue: a whole-variable strong update, or
// a per-field update for v.F = x.
func (a *Aliasing) assign(state aliasState, lhs ast.Expr, t *valueTaint) {
	switch l := lhs.(type) {
	case *ast.Ident:
		if v := asLocalVar(a.info, l); v != nil {
			state[v] = t.clone()
		}
	case *ast.SelectorExpr:
		// v.F = x: strong per-field update when v is a tracked local
		// struct (or pointer to one we materialized via deref-copy).
		if id, ok := l.X.(*ast.Ident); ok {
			if v := asLocalVar(a.info, id); v != nil {
				cur, ok := state[v]
				if !ok {
					cur = &valueTaint{}
					state[v] = cur
				}
				if cur.fields == nil {
					cur.fields = map[string]originSet{}
				}
				os := t.all()
				if onlyFresh(os) {
					delete(cur.fields, l.Sel.Name)
				} else {
					cur.fields[l.Sel.Name] = os
				}
			}
		}
	}
	// Index/star stores (s[i] = x, *p = x) mutate the pointed-to state;
	// the sinks themselves inspect those directly.
}

func onlyFresh(os originSet) bool {
	for o := range os {
		if o.Kind != OriginFresh {
			return false
		}
	}
	return true
}

// eval computes the taint of an expression under state.
func (a *Aliasing) eval(state aliasState, e ast.Expr) *valueTaint {
	fresh := func() *valueTaint {
		return &valueTaint{origins: originSet{Origin{Kind: OriginFresh}: {}}}
	}
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if x.Name == "nil" {
			return &valueTaint{}
		}
		obj := a.info.Uses[x]
		if obj == nil {
			obj = a.info.Defs[x]
		}
		v, ok := obj.(*types.Var)
		if !ok {
			return &valueTaint{}
		}
		if lv := asLocalVar(a.info, x); lv != nil {
			if t, ok := state[lv]; ok {
				return t.clone()
			}
			// Untracked local: parameters carry producer-reachable state.
			if isParamOf(lv, a.cfg.Fn, a.info) {
				return &valueTaint{origins: originSet{Origin{Kind: OriginParam, Obj: lv}: {}}}
			}
			return &valueTaint{}
		}
		if v.IsField() {
			return &valueTaint{origins: originSet{Origin{Kind: OriginField, Obj: v}: {}}}
		}
		// Package-level variable, or a captured outer-function local —
		// either way state another goroutine/frame can reach.
		return &valueTaint{origins: originSet{Origin{Kind: OriginGlobal, Obj: v}: {}}}
	case *ast.SelectorExpr:
		// Reading x.F: fields of tracked struct locals use the per-field
		// map; anything else is state behind the base.
		if id, ok := x.X.(*ast.Ident); ok {
			if v := asLocalVar(a.info, id); v != nil {
				if t, ok := state[v]; ok {
					if fs, ok := t.fields[x.Sel.Name]; ok {
						return &valueTaint{origins: fs.clone()}
					}
					if onlyFresh(t.origins) {
						return fresh()
					}
					return &valueTaint{origins: t.origins.clone()}
				}
			}
		}
		base := a.eval(state, x.X)
		bo := base.all()
		if len(bo) == 0 || onlyFresh(bo) {
			// Field of an untracked or fresh base: the receiver path
			// makes it field state.
			if sel, ok := a.info.Selections[x]; ok {
				if fv, ok := sel.Obj().(*types.Var); ok {
					return &valueTaint{origins: originSet{Origin{Kind: OriginField, Obj: fv}: {}}}
				}
			}
			return &valueTaint{origins: originSet{Origin{Kind: OriginUnknown}: {}}}
		}
		return &valueTaint{origins: bo}
	case *ast.IndexExpr:
		// s[i]: elements of a tracked slice may alias each other.
		if root := rootVarOf(a.info, x.X); root != nil {
			return &valueTaint{origins: originSet{Origin{Kind: OriginElem, Obj: root, LoopVariant: false}: {}}}
		}
		return a.eval(state, x.X)
	case *ast.SliceExpr:
		return a.eval(state, x.X)
	case *ast.StarExpr:
		// *p: a struct copy whose reference fields alias p's interior.
		pt := a.eval(state, x.X)
		t := &valueTaint{}
		if st := derefStruct(a.info.Types[x].Type); st != nil {
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if hasMutableRefs(f.Type()) {
					os := pt.all()
					if len(os) == 0 {
						os = originSet{Origin{Kind: OriginUnknown}: {}}
					}
					if t.fields == nil {
						t.fields = map[string]originSet{}
					}
					t.fields[f.Name()] = os
				}
			}
			return t
		}
		return &valueTaint{origins: pt.all()}
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			// &v: exposes v's interior; &T{...} evaluates the literal.
			inner := a.eval(state, x.X)
			out := &valueTaint{origins: originSet{Origin{Kind: OriginFresh}: {}}}
			if inner != nil {
				out.fields = map[string]originSet{}
				for f, os := range inner.fields {
					out.fields[f] = os.clone()
				}
				for o := range inner.origins {
					if o.Kind != OriginFresh {
						out.origins.add(o)
					}
				}
			}
			return out
		}
		if x.Op == token.ARROW {
			return fresh() // received values: sender's problem
		}
		return &valueTaint{}
	case *ast.CompositeLit:
		t := &valueTaint{origins: originSet{Origin{Kind: OriginFresh}: {}}}
		if st := derefStruct(a.info.Types[x].Type); st != nil {
			for _, el := range x.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok {
					continue
				}
				os := a.eval(state, kv.Value).all()
				if !onlyFresh(os) && len(os) > 0 {
					if t.fields == nil {
						t.fields = map[string]originSet{}
					}
					t.fields[key.Name] = os
				}
			}
		}
		return t
	case *ast.CallExpr:
		if isCloneCall(a.info, x) || isMakeOrNew(x) {
			return fresh()
		}
		if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "append" && len(x.Args) > 0 {
			// append(dst, elems...): fresh when dst is provably fresh/nil
			// and the element type carries no references of its own.
			dst := a.eval(state, x.Args[0])
			do := dst.all()
			if len(do) == 0 || onlyFresh(do) {
				if tv, ok := a.info.Types[x.Args[0]]; ok {
					if sl, ok := tv.Type.Underlying().(*types.Slice); ok && !hasMutableRefs(sl.Elem()) {
						return fresh()
					}
				}
				// Element type itself aliases: union in the sources.
				t := fresh()
				for _, arg := range x.Args[1:] {
					t.origins = t.origins.union(a.eval(state, arg).all())
				}
				return t
			}
			t := &valueTaint{origins: do}
			for _, arg := range x.Args[1:] {
				t.origins = t.origins.union(a.eval(state, arg).all())
			}
			return t
		}
		// Other calls: assumed to return freshly allocated state. An
		// accessor returning internal state is missed by design (see the
		// package comment): this lattice under-reports.
		return fresh()
	case *ast.TypeAssertExpr:
		return a.eval(state, x.X)
	case *ast.BasicLit, *ast.FuncLit:
		return fresh()
	}
	return &valueTaint{}
}

// rootVarOf returns the local/param variable at the root of a simple
// index base (resps, or q.sc-style chains return nil).
func rootVarOf(info *types.Info, e ast.Expr) *types.Var {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		if v, ok := info.Uses[id].(*types.Var); ok && !v.IsField() {
			return v
		}
	}
	return nil
}

func derefStruct(t types.Type) *types.Struct {
	if t == nil {
		return nil
	}
	u := t.Underlying()
	if p, ok := u.(*types.Pointer); ok {
		u = p.Elem().Underlying()
	}
	st, _ := u.(*types.Struct)
	return st
}

// hasMutableRefs reports whether values of t carry mutable reference
// state: slices, maps, pointers, channels, or structs containing them.
// Strings and interfaces do not count (strings are immutable; interface
// dynamic state is invisible to this intraprocedural lattice).
func hasMutableRefs(t types.Type) bool {
	return hasMutableRefs1(t, 0)
}

func hasMutableRefs1(t types.Type, depth int) bool {
	if depth > 4 {
		return true // deep nesting: assume the worst
	}
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Map, *types.Pointer, *types.Chan:
		return true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if hasMutableRefs1(u.Field(i).Type(), depth+1) {
				return true
			}
		}
		return false
	case *types.Array:
		return hasMutableRefs1(u.Elem(), depth+1)
	}
	return false
}

// isCloneCall recognizes the explicit deep-copy idioms.
func isCloneCall(info *types.Info, call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok && fn.Pkg() != nil {
			p, n := fn.Pkg().Path(), fn.Name()
			if (p == "slices" || p == "maps" || p == "bytes" || p == "strings") && n == "Clone" {
				return true
			}
		}
	}
	return false
}

func isMakeOrNew(call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && (id.Name == "make" || id.Name == "new")
}

// isParamOf reports whether v is a parameter/receiver of fn.
func isParamOf(v *types.Var, fn ast.Node, info *types.Info) bool {
	var lists []*ast.FieldList
	switch f := fn.(type) {
	case *ast.FuncDecl:
		lists = fieldLists(f)
	case *ast.FuncLit:
		lists = []*ast.FieldList{f.Type.Params}
	}
	for _, fl := range lists {
		if fl == nil {
			continue
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if info.Defs[name] == v {
					return true
				}
			}
		}
	}
	return false
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
