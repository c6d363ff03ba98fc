// Package analysis is a self-contained project-invariant analysis
// framework modelled on golang.org/x/tools/go/analysis, built only on the
// standard library (the build environment is offline, so x/tools itself
// cannot be vendored). It exists to machine-check the concurrency and
// configuration contracts the jdvs codebase otherwise maintains by
// convention — the atomic-length lock-free publish,
// no-blocking-under-lock, knob threading across layers, and
// counted error paths — via the analyzers under passes/ and the
// cmd/jdvs-vet multichecker.
//
// The model mirrors x/tools deliberately: an Analyzer holds a Run
// function over a Pass; a Pass exposes one type-checked package and a
// Report sink; analyzers exchange cross-package information through
// facts exported by upstream packages and imported downstream (the
// checker runs packages in dependency order, so a fact exported by
// internal/index is visible when internal/cluster is analyzed). If the
// toolchain environment ever gains x/tools, the passes port almost
// line-for-line.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and flags. It must be
	// a valid Go identifier.
	Name string
	// Doc is the one-paragraph contract statement, shown by
	// `jdvs-vet help`.
	Doc string
	// Run applies the analyzer to one package. It reports findings via
	// pass.Report/Reportf and may export facts for downstream packages.
	Run func(pass *Pass) error
}

// A Pass is one (analyzer, package) unit of work.
type Pass struct {
	Analyzer *Analyzer
	// Fset is shared by every package in the load.
	Fset *token.FileSet
	// Files are the package's parsed non-test Go files.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo carries full expression/selection/use information for
	// Files.
	TypesInfo *types.Info

	report func(Diagnostic)
	facts  *factStore

	// suite names every analyzer in the current run. The directiverot
	// audit consults it so a directive is only called dead when the
	// analyzer it belongs to actually ran (a `-only` run must not flag
	// every other analyzer's directives as stale).
	suite map[string]bool

	// directives indexes //jdvs: comments. The checker shares one index
	// across every pass run on the same package so the directiverot audit
	// (always registered last) can see which directives suppressed a live
	// finding of an earlier analyzer. A pass built outside the checker
	// (unit tests) constructs its own lazily.
	directives *directiveIndex

	// Per-function engine caches, keyed by the CFG so analyzers that
	// share a function pay for construction and fixpoints once.
	cfgs     map[ast.Node]*CFG
	defuse   map[*CFG]*DefUse
	aliasing map[*CFG]*Aliasing
}

// SuiteContains reports whether the analyzer named name is part of the
// current checker run.
func (p *Pass) SuiteContains(name string) bool { return p.suite[name] }

// FuncCFG returns the control-flow graph of fn (a *ast.FuncDecl or
// *ast.FuncLit), built on first request and cached for the pass.
func (p *Pass) FuncCFG(fn ast.Node) *CFG {
	if p.cfgs == nil {
		p.cfgs = map[ast.Node]*CFG{}
	}
	if c, ok := p.cfgs[fn]; ok {
		return c
	}
	c := BuildCFG(fn)
	p.cfgs[fn] = c
	return c
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Report emits a finding.
func (p *Pass) Report(d Diagnostic) { p.report(d) }

// Reportf emits a finding at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ExportFact publishes value under key for downstream packages analyzed
// later in dependency order. Facts are namespaced per analyzer.
func (p *Pass) ExportFact(key string, value any) {
	p.facts.set(p.Pkg.Path(), p.Analyzer.Name, key, value)
}

// ImportFact retrieves a fact exported by the named package (any package
// earlier in the dependency order) under the same analyzer. The package
// is identified by import-path suffix match when an exact match is
// absent, so analyzers keyed on layout ("internal/index") work across
// the real module and test fixtures alike.
func (p *Pass) ImportFact(pkgPath, key string) (any, bool) {
	return p.facts.get(p.Analyzer.Name, pkgPath, key)
}

// factStore holds facts for one checker run.
type factStore struct {
	m map[factKey]any
}

type factKey struct {
	pkg, analyzer, key string
}

func newFactStore() *factStore { return &factStore{m: map[factKey]any{}} }

func (s *factStore) set(pkg, analyzer, key string, v any) {
	s.m[factKey{pkg, analyzer, key}] = v
}

func (s *factStore) get(analyzer, pkg, key string) (any, bool) {
	if v, ok := s.m[factKey{pkg, analyzer, key}]; ok {
		return v, true
	}
	// Suffix match: fixture modules mirror the repo layout under their
	// own module path.
	for k, v := range s.m {
		if k.analyzer == analyzer && k.key == key && pathHasSuffix(k.pkg, pkg) {
			return v, true
		}
	}
	return nil, false
}

// pathHasSuffix reports whether import path p ends with the
// slash-separated suffix s ("fixtures/internal/index" has suffix
// "internal/index" but not "ternal/index").
func pathHasSuffix(p, s string) bool {
	if p == s {
		return true
	}
	if len(p) > len(s) && p[len(p)-len(s)-1] == '/' && p[len(p)-len(s):] == s {
		return true
	}
	return false
}
