// Package analysistest runs an analyzer over fixture packages and checks
// its diagnostics against `// want` expectations, mirroring
// golang.org/x/tools/go/analysis/analysistest on the project's own
// framework.
//
// Fixtures live in a testdata/ directory holding a self-contained module
// (a go.mod plus packages under src/); the go tool never folds testdata
// into the enclosing build, so fixtures may freely seed contract
// violations. An expectation is a trailing comment on the offending
// line:
//
//	c.hits++ // want `accessed atomically elsewhere`
//
// Each backquoted or quoted string is a regexp that must match one
// diagnostic reported on that line; diagnostics with no matching
// expectation, and expectations with no matching diagnostic, fail the
// test.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"jdvs/internal/analysis"
)

// TestData returns the testdata directory of the caller's package. Only
// tests call it: this package exists to support analyzer tests.
func TestData(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// Run loads ./src/<pkg> (recursively for "<pkg>/..." patterns) from the
// fixture module at dir, applies a, and checks expectations.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	RunSuite(t, dir, []*analysis.Analyzer{a}, pkgs...)
}

// RunSuite is Run for several analyzers applied together in order. The
// directiverot audit needs it: its dead-suppression check reads the
// directive hits recorded by the analyzers registered before it in the
// same run.
func RunSuite(t *testing.T, dir string, analyzers []*analysis.Analyzer, pkgs ...string) {
	t.Helper()
	patterns := make([]string, len(pkgs))
	for i, p := range pkgs {
		patterns[i] = "./src/" + p
	}
	fset, loaded, err := analysis.Load(dir, patterns...)
	if err != nil {
		t.Fatalf("load fixtures: %v", err)
	}
	findings, err := analysis.RunAnalyzers(fset, loaded, analyzers)
	if err != nil {
		t.Fatalf("run %s: %v", analyzers[0].Name, err)
	}

	type key struct {
		file string
		line int
	}
	wants := map[key][]*expectation{}
	for _, pkg := range loaded {
		if !pkg.Target {
			continue
		}
		for _, f := range pkg.Files {
			collectWants(t, fset, f, func(file string, line int, e *expectation) {
				k := key{file, line}
				wants[k] = append(wants[k], e)
			})
		}
	}

	for _, fd := range findings {
		k := key{fd.Pos.Filename, fd.Pos.Line}
		matched := false
		for _, w := range wants[k] {
			if w.re.MatchString(fd.Message) {
				w.matched = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", posString(fd.Pos.Filename, fd.Pos.Line), fd.Message)
		}
	}
	for k, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: expected diagnostic matching %q, got none", posString(k.file, k.line), w.re)
			}
		}
	}
}

type expectation struct {
	re      *regexp.Regexp
	matched bool
}

func posString(file string, line int) string {
	return fmt.Sprintf("%s:%d", filepath.Base(file), line)
}

func collectWants(t *testing.T, fset *token.FileSet, f *ast.File, add func(string, int, *expectation)) {
	t.Helper()
	tf := fset.File(f.Pos())
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			// Line or block comment; block comments (used to attach an
			// expectation before a line-comment directive) drop the
			// closing delimiter so it does not trail the last pattern.
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSuffix(strings.TrimPrefix(text, "/*"), "*/")
			idx := strings.Index(text, "want ")
			if idx < 0 {
				continue
			}
			rest := strings.TrimSpace(text[idx+len("want "):])
			pos := fset.Position(c.Pos())
			for rest != "" {
				var lit string
				switch rest[0] {
				case '`':
					end := strings.Index(rest[1:], "`")
					if end < 0 {
						t.Fatalf("%s:%d: unterminated want pattern", tf.Name(), pos.Line)
					}
					lit = rest[1 : 1+end]
					rest = strings.TrimSpace(rest[end+2:])
				case '"':
					var err error
					q := rest
					// Find the closing quote via Unquote on growing
					// prefixes — want strings are short.
					endq := -1
					for i := 1; i < len(q); i++ {
						if q[i] == '"' && q[i-1] != '\\' {
							endq = i
							break
						}
					}
					if endq < 0 {
						t.Fatalf("%s:%d: unterminated want pattern", tf.Name(), pos.Line)
					}
					lit, err = strconv.Unquote(q[:endq+1])
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %s: %v", tf.Name(), pos.Line, q[:endq+1], err)
					}
					rest = strings.TrimSpace(q[endq+1:])
				default:
					t.Fatalf("%s:%d: want patterns must be quoted or backquoted, got %q", tf.Name(), pos.Line, rest)
				}
				re, err := regexp.Compile(lit)
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", tf.Name(), pos.Line, lit, err)
				}
				add(pos.Filename, pos.Line, &expectation{re: re})
			}
		}
	}
}
