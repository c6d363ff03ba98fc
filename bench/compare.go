package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json that -compare needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// Verdicts of one workload x metric row.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// row compares one end-to-end metric on one workload across two result
// sets.
type row struct {
	workload, metric, unit string
	a, b                   [3]float64 // Q1, median, Q3
	delta                  float64    // how much worse b's median is: a share of a's, or for a share the difference
	bound                  float64
	verdict                string
}

// spread is the distance between the quartiles as a share of the median.
func spread(q [3]float64) float64 { return ratio(q[2]-q[0], q[1]) }

// judge applies the rule: a spread wider than the bound on either side
// leaves the row unresolved, since the runs cannot tell a change of that
// size from noise; otherwise b is worse when its median is worse than a's by
// more than the bound. The bound is a share of a's median, except for a
// metric that is itself a share (absolute): there it is a difference, so
// that recall falling from 0.96 to 0.95 uses up the same 0.01 as from 1.00
// to 0.99. The driver's rule is the relative one; near 1 the two agree and
// the absolute one is the stricter.
func judge(a, b [3]float64, higherBetter, absolute bool, bound float64) (delta float64, verdict string) {
	delta = b[1] - a[1]
	spreadA, spreadB := a[2]-a[0], b[2]-b[0]
	if !absolute {
		delta, spreadA, spreadB = ratio(delta, a[1]), spread(a), spread(b)
	}
	if higherBetter {
		delta = -delta
	}
	switch {
	case spreadA > bound || spreadB > bound:
		return delta, verdictUnresolved
	case delta > bound:
		return delta, verdictWorse
	}
	return delta, verdictOK
}

func readRecords(path string) (map[string]map[string][]float64, map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	values := map[string]map[string][]float64{}
	units := map[string]string{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		if values[r.Workload] == nil {
			values[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			values[r.Workload][name] = append(values[r.Workload][name], m.Value)
			units[name] = m.Unit
		}
	}
	return values, units, sc.Err()
}

func compareSets(bf benchmarkFile, a, b map[string]map[string][]float64, units map[string]string) []row {
	var rows []row
	var names []string
	for w := range a {
		if b[w] != nil {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	for _, w := range names {
		for _, m := range bf.EndToEnd {
			va, vb := a[w][m.Name], b[w][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			r := row{workload: w, metric: m.Name, unit: units[m.Name], bound: m.Bound}
			r.a[0], r.a[1], r.a[2] = quartiles(va)
			r.b[0], r.b[1], r.b[2] = quartiles(vb)
			r.delta, r.verdict = judge(r.a, r.b, m.Better == "higher", m.Unit == "share", m.Bound)
			rows = append(rows, r)
		}
	}
	return rows
}

func compareFiles(pathA, pathB string) int {
	raw, err := os.ReadFile(benchmarkPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return exitError
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", benchmarkPath, err)
		return exitError
	}
	a, units, err := readRecords(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return exitError
	}
	b, _, err := readRecords(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return exitError
	}
	rows := compareSets(bf, a, b, units)
	if len(rows) == 0 {
		fmt.Fprintln(os.Stderr, "no workload and metric in common")
		return exitError
	}
	fmt.Printf("%-15s %-22s %-6s %12s %12s %12s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "unit", "A median", "A q1..q3", "B median", "B q1..q3", "spreadA", "delta", "bound", "verdict")
	code := exitOK
	for _, r := range rows {
		fmt.Printf("%-15s %-22s %-6s %12.4f %5.3g..%-5.3g %12.4f %5.3g..%-5.3g %8.3f %+8.3f %6.3f  %s\n",
			r.workload, r.metric, r.unit, r.a[1], r.a[0], r.a[2], r.b[1], r.b[0], r.b[2], spread(r.a), r.delta, r.bound, r.verdict)
		if r.verdict == verdictWorse {
			code = exitIncorrect
		}
	}
	return code
}
