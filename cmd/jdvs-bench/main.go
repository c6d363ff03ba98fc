// Command jdvs-bench regenerates the paper's evaluation artifacts (§3) and
// the repo's A/B comparisons against the real system and prints
// paper-style tables. It is a loop over the internal/experiments registry:
//
//	jdvs-bench -experiment table1|fig11|fig12|fig13|hedge|filtered|cached|all
//
// Every experiment takes the same scale flags (-products, -partitions,
// -events, -duration, -threads, -query-pool, -seed); a flag left at 0
// takes that experiment's laptop-sized default, and a flag an experiment
// has no use for is ignored. Everything else an experiment fixes — cluster
// shape, skew, injected faults — is a constant in its registry entry.
//
// These are closed-loop demonstrations, not the gate for a performance
// claim: that is BENCHMARK.json and bench/ (see bench/README.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"jdvs/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "jdvs-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	var names, docs []string
	for _, e := range experiments.All() {
		names = append(names, e.Name)
		docs = append(docs, fmt.Sprintf("\n  %-9s%s", e.Name, e.Doc))
	}
	fs := flag.NewFlagSet("jdvs-bench", flag.ExitOnError)
	var sc experiments.Scale
	experiment := fs.String("experiment", "all", "which experiment to run, or all of them in this order:"+strings.Join(docs, ""))
	fs.IntVar(&sc.Products, "products", 0, "catalog size (0 = experiment default)")
	fs.IntVar(&sc.Partitions, "partitions", 0, "searcher partitions (0 = experiment default)")
	fs.IntVar(&sc.Events, "events", 0, "table1/fig11: per-image update events (0 = experiment default)")
	fs.DurationVar(&sc.Duration, "duration", 0, "measurement window per load point; fig11: real length of the simulated day (0 = experiment default)")
	fs.IntVar(&sc.Threads, "threads", 0, "closed-loop client concurrency; fig12 sweeps T/4, T/2, T and fig13 1, 3, …, T (0 = experiment default)")
	fs.IntVar(&sc.QueryPool, "query-pool", 0, "cached: distinct query images in the zipf-weighted pool (0 = experiment default)")
	fs.Int64Var(&sc.Seed, "seed", 42, "catalog, update-mix and query seed")
	_ = fs.Parse(args) // ExitOnError: a bad flag or -h never returns

	ran := false
	for _, e := range experiments.All() {
		if *experiment != "all" && *experiment != e.Name {
			continue
		}
		ran = true
		started := time.Now()
		fmt.Fprintf(out, "=== %s ===\n", e.Name)
		rep, err := e.Run(sc)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, rep.Render())
		fmt.Fprintf(out, "--- %s done in %s ---\n\n", e.Name, time.Since(started).Round(time.Millisecond))
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (want %s, all)", *experiment, strings.Join(names, ", "))
	}
	return nil
}
