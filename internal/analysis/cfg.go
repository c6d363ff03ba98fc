package analysis

import (
	"go/ast"
	"go/token"
)

// This file is the function-level control-flow engine the concurrency
// analyzers (publishorder, aliasshare) are built on. A contract such as
// "a length load precedes the directory load" is a statement about
// *orderings along paths*, which a per-statement AST walk cannot check.
//
// The construction mirrors golang.org/x/tools/go/cfg in shape (basic
// blocks of statement/expression nodes, branch/loop/switch/select
// lowering, a synthetic exit block) but stays stdlib-only like the rest
// of the framework. A panic ends its block with an edge to Exit, so the
// statements after it are unreachable.

// A CFG is the control-flow graph of one function body. Build one via
// Pass.FuncCFG, which caches per function.
type CFG struct {
	Fn     ast.Node // *ast.FuncDecl or *ast.FuncLit
	Blocks []*Block
	Entry  *Block
	// Exit is the synthetic sink: returns, panics and falling off the end
	// all edge here.
	Exit *Block

	pos map[ast.Node]NodePos
}

// A Block is a straight-line run of nodes: statements, plus the
// condition/tag/range expressions that control branching. Execution
// enters at Nodes[0] and leaves by one of Succs.
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Block
}

// NodePos locates a node inside a CFG.
type NodePos struct {
	Block *Block
	Index int // position in Block.Nodes
	ok    bool
}

// Valid reports whether the position resolved.
func (p NodePos) Valid() bool { return p.ok }

// NodePos resolves n — or, failing that, the nearest enclosing node on
// stack — to its CFG position. Analyzers typically hold a WithStack
// stack whose tip is an interesting expression; the CFG registers
// statements and controlling expressions, so the resolver climbs until
// it finds one.
func (c *CFG) NodePos(n ast.Node, stack []ast.Node) NodePos {
	if p, ok := c.pos[n]; ok {
		return p
	}
	for i := len(stack) - 1; i >= 0; i-- {
		if p, ok := c.pos[stack[i]]; ok {
			return p
		}
		if stack[i] == c.Fn {
			break
		}
	}
	return NodePos{}
}

// PathToAvoiding reports whether execution can reach `to` from function
// entry without first executing an avoiding node — the reader-ordering
// primitive: publishorder asks whether a directory load is reachable
// with no length load before it.
func (c *CFG) PathToAvoiding(to NodePos, avoid func(ast.Node) bool) bool {
	if !to.ok {
		return false
	}
	if c.Entry == to.Block {
		// A loop re-entering the entry block replays it from the top and
		// meets the same prefix, so the direct check is exact.
		return !blockedBefore(to, avoid)
	}
	// Any path must traverse the whole entry block first.
	for _, n := range c.Entry.Nodes {
		if avoid(n) {
			return false
		}
	}
	return c.search(c.Entry, to.Block, avoid) && !blockedBefore(to, avoid)
}

// blockedBefore reports whether an avoid node precedes to within its own
// block.
func blockedBefore(to NodePos, avoid func(ast.Node) bool) bool {
	for _, n := range to.Block.Nodes[:to.Index] {
		if avoid(n) {
			return true
		}
	}
	return false
}

// search is a block-granular BFS from -> to. A block containing an avoid
// node blocks traversal through it (blocks are straight-line, so any
// path through the block executes the node). The start block's own nodes
// are not re-examined (callers handle the partial block).
func (c *CFG) search(from, to *Block, avoid func(ast.Node) bool) bool {
	seen := make([]bool, len(c.Blocks))
	queue := []*Block{}
	expand := func(b *Block) {
		for _, s := range b.Succs {
			if !seen[s.Index] {
				seen[s.Index] = true
				queue = append(queue, s)
			}
		}
	}
	expand(from)
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		if b == to {
			return true
		}
		blocked := false
		for _, n := range b.Nodes {
			if avoid(n) {
				blocked = true
				break
			}
		}
		if blocked {
			continue
		}
		expand(b)
	}
	return false
}

// BuildCFG constructs the CFG for fn's body. Nested function literals
// are opaque single nodes: they get their own CFGs.
func BuildCFG(fn ast.Node) *CFG {
	var body *ast.BlockStmt
	switch f := fn.(type) {
	case *ast.FuncDecl:
		body = f.Body
	case *ast.FuncLit:
		body = f.Body
	}
	c := &CFG{Fn: fn, pos: map[ast.Node]NodePos{}}
	b := &builder{cfg: c, labels: map[string]*labelFrame{}}
	c.Entry = b.newBlock()
	c.Exit = b.newBlock()
	b.cur = c.Entry
	if body != nil {
		b.stmts(body.List)
	}
	b.edge(b.cur, c.Exit) // fall off the end
	for _, g := range b.gotos {
		if lf := b.labels[g.label]; lf != nil {
			b.edge(g.from, lf.target)
		}
	}
	return c
}

type labelFrame struct {
	target  *Block // the labeled statement's block (goto/continue target)
	breakTo *Block // set for labeled loops/switches
	contTo  *Block
	isLoop  bool
}

type pendingGoto struct {
	from  *Block
	label string
}

type builder struct {
	cfg *CFG
	cur *Block

	// Innermost-first stacks of break/continue targets.
	breaks []*Block
	conts  []*Block

	labels map[string]*labelFrame
	// pendingLabel names the label attached to the next loop/switch.
	pendingLabel string
	gotos        []pendingGoto
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
}

func (b *builder) add(n ast.Node) {
	b.cfg.pos[n] = NodePos{Block: b.cur, Index: len(b.cur.Nodes), ok: true}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *builder) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.ReturnStmt:
		b.add(st)
		b.edge(b.cur, b.cfg.Exit)
		b.cur = b.newBlock() // unreachable continuation
	case *ast.ExprStmt:
		b.add(st)
		if isPanic(st.X) {
			b.edge(b.cur, b.cfg.Exit)
			b.cur = b.newBlock()
		}
	case *ast.BlockStmt:
		b.stmts(st.List)
	case *ast.IfStmt:
		if st.Init != nil {
			b.stmt(st.Init)
		}
		b.add(st.Cond)
		condBlk := b.cur
		after := b.newBlock()
		thenBlk := b.newBlock()
		b.edge(condBlk, thenBlk)
		b.cur = thenBlk
		b.stmts(st.Body.List)
		b.edge(b.cur, after)
		if st.Else != nil {
			elseBlk := b.newBlock()
			b.edge(condBlk, elseBlk)
			b.cur = elseBlk
			b.stmt(st.Else)
			b.edge(b.cur, after)
		} else {
			b.edge(condBlk, after)
		}
		b.cur = after
	case *ast.ForStmt:
		if st.Init != nil {
			b.stmt(st.Init)
		}
		head := b.newBlock()
		body := b.newBlock()
		after := b.newBlock()
		b.edge(b.cur, head)
		if st.Cond != nil {
			b.cur = head
			b.add(st.Cond)
			b.edge(head, body)
			b.edge(head, after)
		} else {
			b.edge(head, body)
		}
		b.pushLoop(after, head)
		b.cur = body
		b.stmts(st.Body.List)
		if st.Post != nil {
			b.stmt(st.Post)
		}
		b.edge(b.cur, head)
		b.popLoop()
		b.cur = after
	case *ast.RangeStmt:
		head := b.newBlock()
		body := b.newBlock()
		after := b.newBlock()
		b.edge(b.cur, head)
		b.cur = head
		b.add(st) // the range head: X evaluation + key/value assignment
		b.edge(head, body)
		b.edge(head, after)
		b.pushLoop(after, head)
		b.cur = body
		b.stmts(st.Body.List)
		b.edge(b.cur, head)
		b.popLoop()
		b.cur = after
	case *ast.SwitchStmt:
		if st.Init != nil {
			b.stmt(st.Init)
		}
		if st.Tag != nil {
			b.add(st.Tag)
		}
		b.switchBody(st.Body, nil)
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			b.stmt(st.Init)
		}
		b.add(st.Assign)
		b.switchBody(st.Body, nil)
	case *ast.SelectStmt:
		src := b.cur
		after := b.newBlock()
		b.breaks = append(b.breaks, after)
		for _, cl := range st.Body.List {
			cc, ok := cl.(*ast.CommClause)
			if !ok {
				continue
			}
			blk := b.newBlock()
			b.edge(src, blk)
			b.cur = blk
			if cc.Comm != nil {
				b.stmt(cc.Comm)
			}
			b.stmts(cc.Body)
			b.edge(b.cur, after)
		}
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.cur = after
	case *ast.BranchStmt:
		b.add(st)
		switch st.Tok {
		case token.BREAK:
			if t := b.branchTarget(st.Label, true); t != nil {
				b.edge(b.cur, t)
			}
			b.cur = b.newBlock()
		case token.CONTINUE:
			if t := b.branchTarget(st.Label, false); t != nil {
				b.edge(b.cur, t)
			}
			b.cur = b.newBlock()
		case token.GOTO:
			if st.Label != nil {
				b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: st.Label.Name})
			}
			b.cur = b.newBlock()
		case token.FALLTHROUGH:
			// Handled structurally by switchBody.
		}
	case *ast.LabeledStmt:
		target := b.newBlock()
		b.edge(b.cur, target)
		b.cur = target
		b.labels[st.Label.Name] = &labelFrame{target: target}
		b.pendingLabel = st.Label.Name
		b.stmt(st.Stmt)
		b.pendingLabel = ""
	case *ast.GoStmt:
		// The spawned goroutine's body is its own CFG; the statement
		// itself is a plain node.
		b.add(st)
	case nil:
	default:
		// AssignStmt, DeclStmt, IncDecStmt, SendStmt, EmptyStmt, ...
		b.add(s)
	}
}

// switchBody lowers the case clauses of a switch/type-switch: each
// clause is a block reached from the dispatch point; fallthrough chains
// clause bodies.
func (b *builder) switchBody(body *ast.BlockStmt, _ *Block) {
	src := b.cur
	after := b.newBlock()
	b.breaks = append(b.breaks, after)
	if lbl := b.pendingLabel; lbl != "" {
		b.labels[lbl].breakTo = after
		b.pendingLabel = ""
	}
	hasDefault := false
	var clauseBlocks []*Block
	var clauses []*ast.CaseClause
	for _, cl := range body.List {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		blk := b.newBlock()
		b.edge(src, blk)
		clauseBlocks = append(clauseBlocks, blk)
		clauses = append(clauses, cc)
	}
	for i, cc := range clauses {
		b.cur = clauseBlocks[i]
		fallsThrough := false
		if n := len(cc.Body); n > 0 {
			if br, ok := cc.Body[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fallsThrough = true
			}
		}
		b.stmts(cc.Body)
		if fallsThrough && i+1 < len(clauseBlocks) {
			b.edge(b.cur, clauseBlocks[i+1])
		} else {
			b.edge(b.cur, after)
		}
	}
	if !hasDefault {
		b.edge(src, after)
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = after
}

func (b *builder) pushLoop(breakTo, contTo *Block) {
	b.breaks = append(b.breaks, breakTo)
	b.conts = append(b.conts, contTo)
	if lbl := b.pendingLabel; lbl != "" {
		b.labels[lbl].breakTo = breakTo
		b.labels[lbl].contTo = contTo
		b.labels[lbl].isLoop = true
		b.pendingLabel = ""
	}
}

func (b *builder) popLoop() {
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.conts = b.conts[:len(b.conts)-1]
}

func (b *builder) branchTarget(label *ast.Ident, isBreak bool) *Block {
	if label != nil {
		lf := b.labels[label.Name]
		if lf == nil {
			return nil
		}
		if isBreak {
			return lf.breakTo
		}
		return lf.contTo
	}
	if isBreak {
		if len(b.breaks) == 0 {
			return nil
		}
		return b.breaks[len(b.breaks)-1]
	}
	if len(b.conts) == 0 {
		return nil
	}
	return b.conts[len(b.conts)-1]
}

func isPanic(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}
