// Command jdvs-vet is the project's invariant checker: a multichecker
// over the analyzers in internal/analysis/passes that encode the
// contracts the type system cannot — the lock-free publish protocol
// (atomicmix, publishorder), no blocking ops under serving-path mutexes
// (lockhold), end-to-end knob threading (knobthread), counted error
// paths (statcount), conventional package comments on every package
// (pkgdoc), no producer-reachable mutable state shared through caches or
// fan-out (aliasshare), balanced sync.Pool borrows (poolreturn), settled
// timers and tickers (timerstop) — plus stdlib-only stand-ins for the
// stock nilness and unusedwrite passes, which the offline build
// environment cannot fetch from x/tools. The directiverot audit runs last and checks the
// `//jdvs:` escape hatches themselves: unknown names, missing
// justifications, and suppressions whose finding no longer exists.
//
// Usage:
//
//	go run ./cmd/jdvs-vet ./...
//	go run ./cmd/jdvs-vet -only atomicmix,lockhold ./internal/index
//	go run ./cmd/jdvs-vet -json ./... | jq .
//
// Exit status is 0 when no analyzer reports, 1 on findings, 2 on a
// loading or internal error — the same convention as go vet, so CI can
// gate on it directly. The default output format is
// file:line:col: analyzer: message, which .github/jdvs-vet-problem-matcher.json
// turns into GitHub annotations; -json emits one object per finding for
// other tooling.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"jdvs/internal/analysis"
	"jdvs/internal/analysis/passes/aliasshare"
	"jdvs/internal/analysis/passes/atomicmix"
	"jdvs/internal/analysis/passes/directiverot"
	"jdvs/internal/analysis/passes/knobthread"
	"jdvs/internal/analysis/passes/lockhold"
	"jdvs/internal/analysis/passes/nilness"
	"jdvs/internal/analysis/passes/pkgdoc"
	"jdvs/internal/analysis/passes/poolreturn"
	"jdvs/internal/analysis/passes/publishorder"
	"jdvs/internal/analysis/passes/statcount"
	"jdvs/internal/analysis/passes/timerstop"
	"jdvs/internal/analysis/passes/unusedwrite"
)

// all lists every analyzer in execution order. directiverot must stay
// last: its dead-suppression audit reads the directive hits the other
// analyzers record into the per-package index as they run.
var all = []*analysis.Analyzer{
	atomicmix.Analyzer,
	lockhold.Analyzer,
	knobthread.Analyzer,
	statcount.Analyzer,
	pkgdoc.Analyzer,
	nilness.Analyzer,
	unusedwrite.Analyzer,
	publishorder.Analyzer,
	aliasshare.Analyzer,
	poolreturn.Analyzer,
	timerstop.Analyzer,
	directiverot.Analyzer,
}

// jsonFinding is the -json wire form of one diagnostic.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list available analyzers and exit")
	asJSON := flag.Bool("json", false, "emit findings as a JSON array instead of vet-style lines")
	listCache := flag.String("listcache", "", "directory for caching go list output (caller owns invalidation; see analysis.SetListCache)")
	flag.Usage = usage
	flag.Parse()

	if *list {
		for _, a := range all {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jdvs-vet:", err)
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	if *listCache != "" {
		analysis.SetListCache(*listCache)
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "jdvs-vet:", err)
		os.Exit(2)
	}
	fset, pkgs, err := analysis.Load(wd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jdvs-vet:", err)
		os.Exit(2)
	}

	findings, err := analysis.RunAnalyzers(fset, pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jdvs-vet:", err)
		os.Exit(2)
	}
	if *asJSON {
		out := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			out = append(out, jsonFinding{
				Analyzer: f.Analyzer,
				File:     f.Pos.Filename,
				Line:     f.Pos.Line,
				Column:   f.Pos.Column,
				Message:  f.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "\t")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "jdvs-vet:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Printf("%s: %s: %s\n", f.Pos, f.Analyzer, f.Message)
		}
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

func selectAnalyzers(only string) ([]*analysis.Analyzer, error) {
	if only == "" {
		return all, nil
	}
	byName := map[string]*analysis.Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	picked := map[string]bool{}
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		if _, ok := byName[name]; !ok {
			known := make([]string, 0, len(byName))
			for n := range byName {
				known = append(known, n)
			}
			sort.Strings(known)
			return nil, fmt.Errorf("unknown analyzer %q (known: %s)", name, strings.Join(known, ", "))
		}
		picked[name] = true
	}
	// Preserve registration order regardless of the -only spelling so
	// directiverot still runs after its owners when both are selected.
	var ordered []*analysis.Analyzer
	for _, a := range all {
		if picked[a.Name] {
			ordered = append(ordered, a)
		}
	}
	return ordered, nil
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: jdvs-vet [-only a,b] [-list] [-json] [-listcache dir] [packages]\n\n")
	fmt.Fprintf(os.Stderr, "Checks jdvs project invariants. Analyzers:\n\n")
	for _, a := range all {
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
	}
	fmt.Fprintf(os.Stderr, "\nFlags:\n")
	flag.PrintDefaults()
}
