// Command jdvs-e2e is the repository's benchmark: it starts an in-process
// cluster, drives one workload against it from outside the program's own
// code, checks the results against a brute-force oracle, prints every metric
// as one JSON object on the last line of standard output, and exits.
//
//	bash bench/run.sh --workload scan_uniform --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh -compare bench/baseline/run-A.json bench/baseline/run-B.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// Exit codes.
const (
	exitOK        = 0
	exitError     = 1 // could not run
	exitIncorrect = 2 // ran, printed metrics, failed a correctness gate (or -compare found a regression)
	exitWatchdog  = 3
	exitSignal    = 130
)

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one line of a result set, as -record appends it and -compare
// reads it.
type record struct {
	Workload string               `json:"workload"`
	Seed     int64                `json:"seed"`
	Metrics  map[string]metric    `json:"metrics"`
	Windows  map[string][]float64 `json:"windows,omitempty"`
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name     = flag.String("workload", "", "workload to run: scan_uniform, hot_zipf, mixed_realtime or fanout_wide")
		seed     = flag.Int64("seed", 1, "seed of the generated traffic")
		seconds  = flag.Float64("seconds", 10, "length of the measured window (closed + open phase)")
		trace    = flag.Int("trace", 0, "1 adds the traced pass and prints the per-layer metrics")
		recordTo = flag.String("record", "", "append this run's end-to-end metrics to a result-set file")
		deadline = flag.Duration("deadline", hardDeadline, "watchdog: the process exits with code 3 this long after start")
		compare  = flag.Bool("compare", false, "compare two result sets: -compare a.json b.json")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare a.json b.json")
			return exitError
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}

	sp, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q; have:", *name)
		for _, w := range workloads() {
			fmt.Fprintf(os.Stderr, " %s", w.name)
		}
		fmt.Fprintln(os.Stderr)
		return exitError
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "-seconds must be at least 1")
		return exitError
	}

	// Nothing outlives this process: a watchdog ends it at the deadline
	// whatever state it is in, and a signal cancels the run so that every
	// tier is closed on the way out.
	watchdog := time.AfterFunc(*deadline, func() {
		fmt.Fprintf(os.Stderr, "watchdog: still running after %s, exiting\n", *deadline)
		os.Exit(exitWatchdog)
	})
	defer watchdog.Stop()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rep, err := runWorkload(ctx, sp, options{seed: *seed, seconds: *seconds, trace: *trace != 0})
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "interrupted: cluster closed, no result")
			return exitSignal
		}
		fmt.Fprintf(os.Stderr, "%s: %v\n", sp.name, err)
		return exitError
	}

	printTable(os.Stderr, sp.name+" end-to-end", rep.endToEnd)
	printTable(os.Stderr, sp.name+" per-layer", rep.perLayer)
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "INCORRECT: %s\n", p)
	}
	if *recordTo != "" {
		if err := appendRecord(*recordTo, record{sp.name, *seed, rep.endToEnd, rep.windows}); err != nil {
			fmt.Fprintf(os.Stderr, "record: %v\n", err)
			return exitError
		}
	}
	out := result{Correct: len(rep.problems) == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: rep.endToEnd}
	if *trace != 0 {
		out.Metrics = rep.perLayer
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "encode result: %v\n", err)
		return exitError
	}
	fmt.Println(string(line))
	if !out.Correct {
		return exitIncorrect
	}
	return exitOK
}

func appendRecord(path string, r record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
