// Package experiments regenerates every table and figure of the paper's
// evaluation (§3) against the real system, plus the A/B comparisons of
// the mechanisms added since: scaled-down workloads with the paper's
// proportions and shapes drive the full cluster, and each experiment
// reports rows/series in the form the paper uses.
//
// Absolute numbers differ from the paper's production hardware; the
// relations the paper claims — the Table 1 reuse ratio, the diurnal rate
// and latency shape of Fig. 11, the <10% real-time-indexing overhead of
// Fig. 12, the saturation curve and tail CDF of Fig. 13 — are what the
// experiments measure.
//
// Every experiment is an entry of All() built on one skeleton: start
// sizes the cluster, measure turns one closed-loop query load into a
// Point, abRunner drives two sides that differ by one treatment,
// updateStream publishes per-image update events, and Report.Render
// prints the result. What an experiment fixes (cluster shape, skew,
// injected faults) is a constant in its entry; what a run may vary is
// Scale. None of this gates a performance claim — that is BENCHMARK.json
// and bench/.
package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"jdvs/internal/catalog"
	"jdvs/internal/cluster"
	"jdvs/internal/metrics"
	"jdvs/internal/workload"
)

// Scale is what a run may vary, shared by every experiment. A zero field
// takes the experiment's own default (laptop-sized; the paper's testbed
// indexes 100,000 images).
type Scale struct {
	// Products is the catalog size; Partitions the searcher partitions.
	Products   int
	Partitions int
	// Events is the number of per-image update events (table1, fig11).
	Events int
	// Duration is the measurement window of each load point; for fig11 it
	// is the real length of the simulated day.
	Duration time.Duration
	// Threads is the closed-loop client concurrency; the sweeps derive
	// their points from it (fig12: T/4, T/2, T; fig13: 1, 3, …, T).
	Threads int
	// QueryPool is the number of distinct query images (cached).
	QueryPool int
	// Seed drives catalog, update-mix and query generation.
	Seed int64
}

// or fills s's zero fields from d.
func (s Scale) or(d Scale) Scale {
	if s.Products <= 0 {
		s.Products = d.Products
	}
	if s.Partitions <= 0 {
		s.Partitions = d.Partitions
	}
	if s.Events <= 0 {
		s.Events = d.Events
	}
	if s.Duration <= 0 {
		s.Duration = d.Duration
	}
	if s.Threads <= 0 {
		s.Threads = d.Threads
	}
	if s.QueryPool <= 0 {
		s.QueryPool = d.QueryPool
	}
	return s
}

// Experiment is one registered artifact.
type Experiment struct {
	// Name selects it (jdvs-bench -experiment); Doc says what it measures.
	Name, Doc string

	defaults Scale
	run      func(Scale) (*Report, error)
}

// Run executes the experiment at sc, zero fields defaulted.
func (e Experiment) Run(sc Scale) (*Report, error) {
	rep, err := e.run(sc.or(e.defaults))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", e.Name, err)
	}
	return rep, nil
}

// All returns the registry, in the order `jdvs-bench -experiment all`
// runs it.
func All() []Experiment {
	return []Experiment{
		{Name: "table1", Doc: "Table 1: the 315:521:141 update mix streamed through real-time indexing, counted as applied",
			defaults: Scale{Products: 2_000, Partitions: 4, Events: 97_700}, run: runTable1},
		{Name: "fig11", Doc: "Fig. 11: a simulated day of updates on the diurnal rate curve, hourly counts and latency",
			defaults: Scale{Products: 2_000, Partitions: 4, Events: 48_000, Duration: 12 * time.Second}, run: runFig11},
		{Name: "fig12", Doc: "Fig. 12: query throughput and response time with and without concurrent real-time indexing",
			defaults: Scale{Products: 4_000, Partitions: 8, Duration: 3 * time.Second, Threads: 200}, run: runFig12},
		{Name: "fig13", Doc: "Fig. 13: throughput vs client threads and the response-time CDF at saturation",
			defaults: Scale{Products: 4_000, Partitions: 8, Duration: 2 * time.Second, Threads: 35}, run: runFig13},
		{Name: "hedge", Doc: "broker hedging off vs on against an injected slow replica: query-latency tails",
			defaults: Scale{Products: 2_000, Partitions: 4, Duration: 3 * time.Second, Threads: 4}, run: abRunner(hedge)},
		{Name: "filtered", Doc: "one query stream unscoped vs scoped to 1% of the corpus: page fill under bitmap admission",
			defaults: Scale{Products: 4_000, Partitions: 4, Duration: 2 * time.Second, Threads: 8}, run: abRunner(filtered)},
		{Name: "cached", Doc: "zipf-skewed queries with both cache levels off vs on: hit rates and closed-loop speedup",
			defaults: Scale{Products: 1_000, Partitions: 2, Duration: 2 * time.Second, Threads: 8, QueryPool: 512}, run: abRunner(cached)},
	}
}

// start brings cfg up at scale sc: the one place an experiment's cluster
// is sized.
func start(sc Scale, categories int, cfg cluster.Config) (*cluster.Cluster, error) {
	cfg.Partitions = sc.Partitions
	cfg.Catalog = catalog.Config{Products: sc.Products, Categories: categories, Seed: sc.Seed}
	return cluster.Start(cfg)
}

// Point is one measured closed-loop query load.
type Point struct {
	Label                    string
	Threads                  int
	QPS                      float64
	Mean, P50, P95, P99, Max time.Duration
	Queries, Errors          int64
	// FullPage is the share of queries whose response filled the page.
	FullPage float64
	// Counters are tier counters scraped after the load (A/B sides only).
	Counters map[string]int64

	latency *metrics.Histogram
}

// measure runs one closed-loop query load against c and is the only place
// a QueryLoadResult becomes a row. lc needs Concurrency, Duration, Blobs
// and Seed.
func measure(c *cluster.Cluster, label string, lc workload.QueryLoadConfig) (Point, error) {
	lc.Addr = c.FrontendAddr()
	lr, err := workload.RunQueryLoad(lc)
	if err != nil {
		return Point{}, fmt.Errorf("%s, %d threads: %w", label, lc.Concurrency, err)
	}
	p := Point{
		Label:   label,
		Threads: lc.Concurrency,
		QPS:     lr.QPS,
		Mean:    lr.Latency.Mean(),
		P50:     lr.Latency.Percentile(50),
		P95:     lr.Latency.Percentile(95),
		P99:     lr.Latency.Percentile(99),
		Max:     lr.Latency.Max(),
		Queries: lr.Queries,
		Errors:  lr.Errors,
		latency: lr.Latency,
	}
	if lr.Queries > 0 {
		p.FullPage = float64(lr.FullPages) / float64(lr.Queries)
	}
	return p, nil
}

// cell renders one named column of p; the names are the table headers.
// Any other name is the label column ("mode", "side").
func (p Point) cell(col string) string {
	switch col {
	case "threads":
		return itoa(int64(p.Threads))
	case "QPS":
		return fmt.Sprintf("%.0f", p.QPS)
	case "mean":
		return fmtDur(p.Mean)
	case "p50":
		return fmtDur(p.P50)
	case "p95":
		return fmtDur(p.P95)
	case "p99":
		return fmtDur(p.P99)
	case "max":
		return fmtDur(p.Max)
	case "queries":
		return itoa(p.Queries)
	case "errors":
		return itoa(p.Errors)
	case "full-page":
		return fmt.Sprintf("%.3f", p.FullPage)
	}
	return p.Label
}

// pointTable lays points out under the named columns.
func pointTable(caption string, cols []string, points []Point) Table {
	t := Table{Caption: caption, Header: cols}
	for _, p := range points {
		row := make([]string, len(cols))
		for i, col := range cols {
			row[i] = p.cell(col)
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Report is what every experiment returns: the rendered form (Title,
// Tables, Notes) plus the measurements behind it (Points in measurement
// order, named Stats) for callers that check rather than read.
type Report struct {
	Title  string
	Tables []Table
	Notes  []string
	Points []Point
	Stats  map[string]int64
}

// Table is one aligned block of a report: an optional caption, a header,
// rows, and the lines that follow them (the paper's figures to compare).
type Table struct {
	Caption string
	Header  []string
	Rows    [][]string
	Notes   []string
}

// notef appends one formatted closing line.
func (r *Report) notef(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Render prints the report.
func (r *Report) Render() string {
	var b strings.Builder
	b.WriteString(r.Title)
	b.WriteByte('\n')
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%14s", c)
		}
		b.WriteByte('\n')
	}
	for _, t := range r.Tables {
		b.WriteByte('\n')
		if t.Caption != "" {
			b.WriteString(t.Caption)
			b.WriteByte('\n')
		}
		line(t.Header)
		for _, row := range t.Rows {
			line(row)
		}
		for _, n := range t.Notes {
			b.WriteString(n)
			b.WriteByte('\n')
		}
	}
	if len(r.Notes) > 0 {
		b.WriteByte('\n')
	}
	for _, n := range r.Notes {
		b.WriteString(n)
		b.WriteByte('\n')
	}
	return b.String()
}

func itoa(n int64) string { return strconv.FormatInt(n, 10) }

// pct renders num/den as a percentage.
func pct(num, den int64) string {
	if den == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(num)/float64(den))
}

// fmtDur rounds a duration for display.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(10 * time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(time.Microsecond).String()
	}
}
