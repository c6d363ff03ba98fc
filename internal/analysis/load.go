package analysis

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
)

// Package is one loaded, type-checked package.
type Package struct {
	ImportPath string
	Dir        string
	// Standard marks GOROOT packages: loaded decl-only as type context,
	// never analyzed.
	Standard bool
	// Target marks packages named by the load patterns (as opposed to
	// dependencies pulled in for type information). Only targets get
	// diagnostics; non-standard non-targets still run analyzers so their
	// facts are available downstream.
	Target bool

	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
	// Errors holds type-check errors. The checker refuses to run
	// analyzers over a package that failed to check.
	Errors []error

	imports []string
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	Name       string
	Standard   bool
	GoFiles    []string
	Imports    []string
	Error      *struct{ Err string }
}

// Load lists patterns (plus their full dependency closure) with the go
// command from dir, parses every package from source, and type-checks the
// lot in dependency order — entirely offline: the only inputs are the
// module under dir and GOROOT. Test files are not loaded; the analyzers
// check production code, and fixtures seed violations in ordinary files.
//
// Standard-library dependencies are checked with IgnoreFuncBodies (their
// exported API is all dependents need), so a whole-repo load stays in the
// low seconds.
func Load(dir string, patterns ...string) (*token.FileSet, []*Package, error) {
	listed, err := goList(dir, append([]string{"-e", "-deps", "-json"}, patterns...))
	if err != nil {
		return nil, nil, err
	}
	targets, err := goList(dir, append([]string{"-e", "-json"}, patterns...))
	if err != nil {
		return nil, nil, err
	}
	targetSet := map[string]bool{}
	for _, t := range targets {
		targetSet[t.ImportPath] = true
	}

	byPath := map[string]*listedPackage{}
	order := make([]string, 0, len(listed))
	for _, lp := range listed {
		if _, dup := byPath[lp.ImportPath]; dup {
			continue
		}
		byPath[lp.ImportPath] = lp
		order = append(order, lp.ImportPath)
	}

	// Topological order: dependencies before dependents. `go list -deps`
	// already emits this order, but the fact mechanism depends on it, so
	// establish it explicitly.
	sorted := topoSort(order, byPath)

	fset := token.NewFileSet()
	pkgs := make([]*Package, 0, len(sorted))
	typesByPath := map[string]*types.Package{}
	sizes := types.SizesFor("gc", runtime.GOARCH)

	for _, path := range sorted {
		lp := byPath[path]
		if lp.ImportPath == "unsafe" {
			typesByPath["unsafe"] = types.Unsafe
			pkgs = append(pkgs, &Package{ImportPath: "unsafe", Standard: true, Types: types.Unsafe})
			continue
		}
		if lp.Error != nil && len(lp.GoFiles) == 0 {
			return nil, nil, fmt.Errorf("analysis: go list: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		p := &Package{
			ImportPath: lp.ImportPath,
			Dir:        lp.Dir,
			Standard:   lp.Standard,
			Target:     targetSet[lp.ImportPath],
			imports:    lp.Imports,
		}
		mode := parser.ParseComments | parser.SkipObjectResolution
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, mode)
			if err != nil {
				return nil, nil, fmt.Errorf("analysis: parse %s: %w", filepath.Join(lp.Dir, name), err)
			}
			p.Files = append(p.Files, f)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
			Scopes:     map[ast.Node]*types.Scope{},
			Instances:  map[*ast.Ident]types.Instance{},
		}
		cfg := &types.Config{
			Importer:         mapImporter(typesByPath),
			Sizes:            sizes,
			IgnoreFuncBodies: lp.Standard,
			Error:            func(err error) { p.Errors = append(p.Errors, err) },
		}
		tp, _ := cfg.Check(lp.ImportPath, fset, p.Files, info)
		p.Types = tp
		p.TypesInfo = info
		typesByPath[lp.ImportPath] = tp
		if lp.Standard {
			// Dependencies only contribute type context; drop their
			// syntax so a whole-repo load stays small.
			p.Files = nil
			p.TypesInfo = nil
			p.Errors = nil
		}
		pkgs = append(pkgs, p)
	}
	return fset, pkgs, nil
}

// mapImporter resolves imports against already-checked packages,
// including the standard library's vendored copies ("golang.org/x/..."
// inside GOROOT resolves as "vendor/golang.org/x/...").
type mapImporter map[string]*types.Package

// Import implements types.Importer.
func (m mapImporter) Import(path string) (*types.Package, error) {
	if p, ok := m[path]; ok && p != nil {
		return p, nil
	}
	if p, ok := m["vendor/"+path]; ok && p != nil {
		return p, nil
	}
	if p, ok := m["internal/"+path]; ok && p != nil {
		return p, nil
	}
	return nil, fmt.Errorf("analysis: import %q not loaded", path)
}

func topoSort(order []string, byPath map[string]*listedPackage) []string {
	sorted := make([]string, 0, len(order))
	state := map[string]int{} // 0 new, 1 visiting, 2 done
	var visit func(path string)
	visit = func(path string) {
		lp, ok := byPath[path]
		if !ok || state[path] != 0 {
			return
		}
		state[path] = 1
		deps := append([]string(nil), lp.Imports...)
		sort.Strings(deps)
		for _, dep := range deps {
			visit(dep)
		}
		state[path] = 2
		sorted = append(sorted, path)
	}
	for _, path := range order {
		visit(path)
	}
	return sorted
}

// listCacheDir, when non-empty, holds raw `go list` output keyed by the
// invocation (dir + args). See SetListCache.
var listCacheDir string

// SetListCache directs goList to memoize its raw JSON output under dir.
// The cache key covers only the working directory and argument list, not
// the module contents, so the caller owns invalidation: it is meant for
// CI, where the cache directory itself is keyed on a hash of every .go
// file and go.mod, and a source change swaps in an empty directory.
// Passing "" disables caching (the default).
func SetListCache(dir string) { listCacheDir = dir }

// goList shells out to the go command once. CGO is disabled so the file
// lists (and the net resolver et al.) stay pure Go and type-checkable
// from source.
func goList(dir string, args []string) ([]*listedPackage, error) {
	var cachePath string
	if listCacheDir != "" {
		sum := sha256.Sum256([]byte(dir + "\x00" + joinArgs(args)))
		cachePath = filepath.Join(listCacheDir, fmt.Sprintf("golist-%x.json", sum[:12]))
		if out, err := os.ReadFile(cachePath); err == nil {
			if pkgs, err := decodeListed(out); err == nil {
				return pkgs, nil
			}
			// Corrupt entry: fall through and overwrite it.
		}
	}
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list %v: %w\n%s", args, err, stderr.String())
	}
	if cachePath != "" {
		// Best-effort: an unwritable cache slows the run down, nothing
		// else.
		if err := os.MkdirAll(listCacheDir, 0o755); err == nil {
			tmp := cachePath + ".tmp"
			if err := os.WriteFile(tmp, out, 0o644); err == nil {
				os.Rename(tmp, cachePath)
			}
		}
	}
	return decodeListed(out)
}

func joinArgs(args []string) string {
	var b bytes.Buffer
	for _, a := range args {
		b.WriteString(a)
		b.WriteByte(0)
	}
	return b.String()
}

func decodeListed(out []byte) ([]*listedPackage, error) {
	dec := json.NewDecoder(bytes.NewReader(out))
	var pkgs []*listedPackage
	for {
		lp := new(listedPackage)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decode go list output: %w", err)
		}
		pkgs = append(pkgs, lp)
	}
	return pkgs, nil
}
