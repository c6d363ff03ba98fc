package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Annotation escape hatches. Every analyzer that enforces a convention
// offers one `//jdvs:<name>` directive so a human can assert the
// invariant holds for reasons the analyzer cannot see; the directive's
// required trailing comment documents that reason in place. A directive
// suppresses findings of its analyzer on the same source line and on the
// line directly below it (so it can sit above a statement), and a
// directive on a func declaration covers the whole function where the
// analyzer says so.
//
// Directive comments look like:
//
//	//jdvs:blocking-ok reason this blocking call is safe under the lock
//
// The directive name runs to the first space; everything after is the
// justification. The directiverot audit pass flags directives with an
// empty justification and directives that never suppressed a finding
// during the run, so every use is recorded when it matches.

// A DirectiveUse is one //jdvs: comment found in a package, plus how
// many findings it suppressed during the current checker run.
type DirectiveUse struct {
	Name   string
	Reason string
	Pos    token.Pos
	// Hits counts DirectiveAt/FuncDirective matches. The checker shares
	// the index across all analyzers of a package, so by the time the
	// last-registered analyzer (directiverot) runs, Hits reflects the
	// whole suite.
	Hits int
}

// directiveIndex holds every directive of one package, addressable by
// file and line.
type directiveIndex struct {
	all    []*DirectiveUse
	byLine map[*token.File]map[int][]*DirectiveUse
}

func buildDirectiveIndex(fset *token.FileSet, files []*ast.File) *directiveIndex {
	ix := &directiveIndex{byLine: map[*token.File]map[int][]*DirectiveUse{}}
	for _, f := range files {
		tf := fset.File(f.Pos())
		if tf == nil {
			continue
		}
		lines := ix.byLine[tf]
		if lines == nil {
			lines = map[int][]*DirectiveUse{}
			ix.byLine[tf] = lines
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, reason, ok := parseDirective(c.Text)
				if !ok {
					continue
				}
				u := &DirectiveUse{Name: name, Reason: reason, Pos: c.Pos()}
				ix.all = append(ix.all, u)
				ln := tf.Line(c.Pos())
				lines[ln] = append(lines[ln], u)
			}
		}
	}
	return ix
}

// Directives returns every //jdvs: directive in the package's files,
// with hit counts accumulated so far in this run. Used by directiverot.
func (p *Pass) Directives() []*DirectiveUse {
	p.buildDirectives()
	return p.directives.all
}

// DirectiveAt reports whether a `//jdvs:name` directive is attached to
// the line containing pos or to the line immediately above it. A match
// counts as a hit: passes consult directives only when suppressing a
// finding, so a hit means the directive is live.
func (p *Pass) DirectiveAt(pos token.Pos, name string) bool {
	p.buildDirectives()
	tf := p.Fset.File(pos)
	if tf == nil {
		return false
	}
	lines := p.directives.byLine[tf]
	ln := tf.Line(pos)
	found := false
	for _, d := range lines[ln] {
		if d.Name == name {
			d.Hits++
			found = true
		}
	}
	if found {
		return true
	}
	for _, d := range lines[ln-1] {
		if d.Name == name {
			d.Hits++
			found = true
		}
	}
	return found
}

// FuncDirective reports whether fn (a *ast.FuncDecl or *ast.FuncLit)
// carries the directive: on its declaration line, the line above it, or
// anywhere in a FuncDecl's doc comment.
func (p *Pass) FuncDirective(fn ast.Node, name string) bool {
	if decl, ok := fn.(*ast.FuncDecl); ok && decl.Doc != nil {
		p.buildDirectives()
		for _, c := range decl.Doc.List {
			if d, _, ok := parseDirective(c.Text); ok && d == name {
				p.hitAt(c.Pos(), name)
				return true
			}
		}
	}
	return p.DirectiveAt(fn.Pos(), name)
}

// MarkDirectiveUsed records a suppression hit for the directive named
// name at pos. Passes that locate directives through their own AST walks
// (doc-comment scans the line index cannot see) call this so the
// directiverot audit still counts the directive as live.
func (p *Pass) MarkDirectiveUsed(pos token.Pos, name string) {
	p.buildDirectives()
	p.hitAt(pos, name)
}

// hitAt records a hit for the directive named name at pos (used when a
// match was located through the AST rather than the line index).
func (p *Pass) hitAt(pos token.Pos, name string) {
	tf := p.Fset.File(pos)
	if tf == nil {
		return
	}
	for _, d := range p.directives.byLine[tf][tf.Line(pos)] {
		if d.Name == name {
			d.Hits++
		}
	}
}

func (p *Pass) buildDirectives() {
	if p.directives != nil {
		return
	}
	p.directives = buildDirectiveIndex(p.Fset, p.Files)
}

// parseDirective extracts the name and trailing justification from a
// `//jdvs:name reason...` comment.
func parseDirective(text string) (name, reason string, ok bool) {
	const prefix = "//jdvs:"
	if !strings.HasPrefix(text, prefix) {
		return "", "", false
	}
	rest := strings.TrimPrefix(text, prefix)
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		name, reason = rest[:i], strings.TrimSpace(rest[i+1:])
	} else {
		name = rest
	}
	if name == "" {
		return "", "", false
	}
	return name, reason, true
}
