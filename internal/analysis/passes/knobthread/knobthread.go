// Package knobthread enforces the knob-threading contract: a tuning knob
// added to index.Config must not silently stop at one layer. Every
// exported field of index.Config must (1) have a same-named field in
// cluster.Config — the in-process cluster harness that experiments and
// jdvs-bench drive — and (2) be referenced in cmd/jdvsd, the per-node
// daemon, where a knob becomes a flag. Knobs used to be threaded by
// hand (SearchWorkers, PQSubvectors, RerankK); this pass is what
// notices the one that gets forgotten.
//
// Fields that are deliberately not runtime knobs carry `//jdvs:noknob
// <reason>` on their declaration.
//
// Cross-package flow uses the checker's fact mechanism: the pass exports
// the index.Config field list when it analyzes internal/index, and the
// downstream passes (internal/cluster, cmd/jdvsd — both import
// internal/index, so dependency order guarantees the fact exists)
// consume it. Packages are identified by import-path suffix so the pass
// works identically on the real module and on test fixtures mirroring
// its layout.
package knobthread

import (
	"go/ast"
	"go/types"
	"strings"

	"jdvs/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "knobthread",
	Doc:  "every exported index.Config field must reach cluster.Config and a jdvsd flag",
	Run:  run,
}

const (
	indexPkg   = "internal/index"
	clusterPkg = "internal/cluster"
	daemonPkg  = "cmd/jdvsd"
	factKey    = "config-fields"
)

type knobField struct {
	Name   string
	Exempt bool
}

func run(pass *analysis.Pass) error {
	path := pass.Pkg.Path()
	switch {
	case hasSuffix(path, indexPkg):
		fields := configFields(pass)
		if fields != nil {
			pass.ExportFact(factKey, fields)
		}
	case hasSuffix(path, clusterPkg):
		checkCluster(pass)
	case hasSuffix(path, daemonPkg):
		checkDaemon(pass)
	}
	return nil
}

func hasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// configFields extracts the exported fields of the package's Config
// struct, marking `//jdvs:noknob`-annotated ones exempt.
func configFields(pass *analysis.Pass) []knobField {
	var fields []knobField
	spec, st := findConfig(pass)
	if spec == nil {
		return nil
	}
	for _, f := range st.Fields.List {
		for _, name := range f.Names {
			if !name.IsExported() {
				continue
			}
			exempt := pass.DirectiveAt(name.Pos(), "noknob") || fieldDocDirective(pass, f, "noknob")
			fields = append(fields, knobField{Name: name.Name, Exempt: exempt})
		}
	}
	return fields
}

func fieldDocDirective(pass *analysis.Pass, f *ast.Field, name string) bool {
	if f.Doc == nil {
		return false
	}
	for _, c := range f.Doc.List {
		if strings.HasPrefix(c.Text, "//jdvs:"+name) {
			// Doc-comment directives bypass the line index; record the
			// hit so the directiverot audit counts them as live.
			pass.MarkDirectiveUsed(c.Pos(), name)
			return true
		}
	}
	return false
}

func findConfig(pass *analysis.Pass) (*ast.TypeSpec, *ast.StructType) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || ts.Name.Name != "Config" {
					continue
				}
				if st, ok := ts.Type.(*ast.StructType); ok {
					return ts, st
				}
			}
		}
	}
	return nil, nil
}

// checkCluster requires a same-named cluster.Config field for every
// non-exempt index.Config field.
func checkCluster(pass *analysis.Pass) {
	fact, ok := pass.ImportFact(indexPkg, factKey)
	if !ok {
		return // index package not part of this load
	}
	indexFields := fact.([]knobField)
	spec, st := findConfig(pass)
	if spec == nil {
		return
	}
	have := map[string]bool{}
	for _, f := range st.Fields.List {
		for _, name := range f.Names {
			have[name.Name] = true
		}
	}
	for _, f := range indexFields {
		if f.Exempt || have[f.Name] {
			continue
		}
		pass.Reportf(spec.Pos(), "index.Config.%s is not threaded into cluster.Config; add the field (and its jdvsd flag) or annotate it //jdvs:noknob in index.Config", f.Name)
	}
}

// checkDaemon requires every non-exempt index.Config field to be
// referenced as a struct-field write or composite-literal key somewhere
// in the daemon — the shape flag wiring takes. Matching is by field
// name: a knob threaded through an intermediate config (a same-named
// field of another package's Config) still counts, which is the point —
// the contract is that the knob reaches the binary at all.
func checkDaemon(pass *analysis.Pass) {
	fact, ok := pass.ImportFact(indexPkg, factKey)
	if !ok {
		return
	}
	indexFields := fact.([]knobField)

	referenced := map[string]bool{}
	analysis.WithStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok && v.IsField() {
			referenced[id.Name] = true
		}
		return true
	})
	pos := pass.Files[0].Name.Pos()
	for _, f := range indexFields {
		if f.Exempt || referenced[f.Name] {
			continue
		}
		pass.Reportf(pos, "index.Config.%s is not surfaced as a jdvsd flag (no field reference in this package); wire a flag or annotate it //jdvs:noknob in index.Config", f.Name)
	}
}
