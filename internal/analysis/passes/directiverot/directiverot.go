// Package directiverot audits the `//jdvs:` escape hatches themselves.
// A directive is a claim that an invariant holds for reasons its
// analyzer cannot see; the claim rots when the code it excused changes.
// Three states are flagged:
//
//   - unknown name: the directive matches no registered analyzer, so it
//     suppresses nothing and never did (usually a typo: //jdvs:nolok);
//   - missing justification: the directive carries no reason text, so
//     the next reader cannot re-evaluate the claim;
//   - dead suppression: the directive's analyzer ran in this invocation
//     and hit no finding on the directive's lines — the code it excused
//     is gone or was fixed, and the stale annotation now only misleads.
//
// Dead-suppression auditing needs the owning analyzer's hits, so the
// checker shares one directive index per package across the whole suite
// and registers directiverot last. A `-only directiverot` run skips the
// dead check (the owners did not run) and still reports unknown names
// and missing reasons.
//
// directiverot has no escape hatch of its own: deleting or re-justifying
// the directive is the fix.
package directiverot

import (
	"sort"
	"strings"

	"jdvs/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "directiverot",
	Doc:  "flag //jdvs: directives that are unknown, unjustified, or no longer suppress any finding",
	Run:  run,
}

// owners maps each directive name to the analyzer whose findings it
// suppresses. New analyzers with escape hatches register here.
var owners = map[string]string{
	"blocking-ok": "lockhold",
	"noknob":      "knobthread",
	"alias-ok":    "aliasshare",
}

func run(pass *analysis.Pass) error {
	for _, d := range pass.Directives() {
		owner, ok := owners[d.Name]
		if !ok {
			pass.Reportf(d.Pos,
				"unknown directive //jdvs:%s suppresses nothing (known: %s); fix the name or delete it",
				d.Name, knownNames())
			continue
		}
		if d.Reason == "" {
			pass.Reportf(d.Pos,
				"//jdvs:%s has no justification; state why the %s invariant holds here so the claim can be re-evaluated",
				d.Name, owner)
		}
		if d.Hits == 0 && pass.SuiteContains(owner) {
			pass.Reportf(d.Pos,
				"//jdvs:%s suppresses no %s finding on this line; the code it excused is gone — delete the directive",
				d.Name, owner)
		}
	}
	return nil
}

func knownNames() string {
	names := make([]string, 0, len(owners))
	for n := range owners {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
