package main

import (
	"os"
	"strings"
	"testing"
)

// The audit table in docs/INVARIANTS.md and the registry describe the
// same suite: every registered analyzer has exactly one live row (a
// verdict other than **deleted**), and every row names a registered
// analyzer unless its verdict is **deleted**.
func TestRegistryMatchesAuditTable(t *testing.T) {
	doc, err := os.ReadFile("../../docs/INVARIANTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(doc), "\n## The analyzer audit\n")
	if !ok {
		t.Fatal("docs/INVARIANTS.md has no \"## The analyzer audit\" section")
	}
	table, _, _ = strings.Cut(table, "\n## ")

	registered := map[string]bool{}
	for _, a := range all {
		registered[a.Name] = true
	}
	live := map[string]int{}
	for _, line := range strings.Split(table, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 4 || strings.TrimSpace(cells[0]) != "" {
			continue // not a table row
		}
		name := strings.TrimSpace(cells[1])
		verdict := strings.TrimSpace(cells[len(cells)-2])
		if name == "Analyzer" || strings.Trim(name, "-") == "" {
			continue // header or separator
		}
		if verdict == "**deleted**" {
			continue
		}
		if !registered[name] {
			t.Errorf("audit row %q has verdict %q but no registered analyzer; mark it **deleted** or register it", name, verdict)
		}
		live[name]++
	}
	for _, a := range all {
		if n := live[a.Name]; n != 1 {
			t.Errorf("analyzer %s has %d live audit rows in docs/INVARIANTS.md, want exactly 1", a.Name, n)
		}
	}
}
