package main

import (
	"regexp"
	"strings"
	"testing"

	"jdvs/internal/experiments"
)

// -experiment all runs exactly the registry, in order; an unknown name is
// refused with the list of known ones.
func TestRunIteratesRegistry(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-experiment", "all", "-products", "200", "-partitions", "2", "-events", "400",
		"-duration", "150ms", "-threads", "2", "-query-pool", "8"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	var ran, names []string
	for _, e := range experiments.All() {
		names = append(names, e.Name)
	}
	for _, m := range regexp.MustCompile(`(?m)^=== (\S+) ===$`).FindAllStringSubmatch(out.String(), -1) {
		ran = append(ran, m[1])
	}
	if got, want := strings.Join(ran, " "), strings.Join(names, " "); got != want {
		t.Fatalf("-experiment all ran %q, registry is %q", got, want)
	}

	err = run([]string{"-experiment", "fig14"}, &out)
	if err == nil || !strings.Contains(err.Error(), strings.Join(names, ", ")) {
		t.Fatalf("unknown experiment: err = %v, want the list of names", err)
	}
}
