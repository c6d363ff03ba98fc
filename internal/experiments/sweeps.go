package experiments

import (
	"fmt"
	"sync/atomic"
	"time"

	"jdvs/internal/cluster"
	"jdvs/internal/msg"
	"jdvs/internal/workload"
)

// runFig12 measures query throughput and response time at three client
// concurrencies (the paper's 50, 100, 200 at the default Threads), each
// twice on one cluster: with an idle update queue, then with the Table 1
// update mix streaming in. The paper's testbed holds 100,000 images on 20
// searchers; the defaults scale that down.
func runFig12(sc Scale) (*Report, error) {
	const updateRate = 2_000 // events/sec while measuring "with real time index"
	var applied atomic.Int64
	c, err := start(sc, 12, cluster.Config{
		Brokers: 3, Blenders: 3, NLists: 64,
		OnApplied: func(*msg.ProductUpdate, string, bool, time.Duration) { applied.Add(1) },
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()

	// Blobs are generated once, before the update stream owns the catalog.
	blobs := workload.MakeQueryBlobs(c.Catalog, 64, sc.Seed+9)
	warmup := sc.Duration / 4
	if warmup > time.Second {
		warmup = time.Second
	}
	// warmed measures one point after a warmup at the same concurrency.
	warmed := func(label string, threads int, seed int64) (Point, error) {
		lc := workload.QueryLoadConfig{Concurrency: threads, Duration: warmup, Blobs: blobs, Seed: seed + 500}
		if _, err := measure(c, label+" warmup", lc); err != nil {
			return Point{}, err
		}
		lc.Duration, lc.Seed = sc.Duration, seed
		return measure(c, label, lc)
	}

	rep := &Report{
		Title: fmt.Sprintf("Figure 12. Performance with and without real time indexing (update load %d ev/s)", updateRate),
		Stats: map[string]int64{},
	}
	stream := newUpdateStream(c, sc.Seed+100)
	through := Table{
		Caption: "(a) Throughput, normalised to the no-real-time baseline per thread count",
		Header:  []string{"threads", "QPS w/o RT", "QPS with RT", "normalised", "overhead"},
		Notes:   []string{"(paper: overhead < 10% at every thread count)"},
	}
	resp := Table{
		Caption: "(b) Response time",
		Header:  []string{"threads", "mean w/o RT", "mean with RT", "p99 w/o RT", "p99 with RT"},
		Notes:   []string{"(paper: means similar in both modes, < 100ms average)"},
	}
	// The two modes are measured back to back per thread count so
	// machine-level drift hits both equally — the ratio is what matters.
	for i, threads := range []int{sc.Threads / 4, sc.Threads / 2, sc.Threads} {
		if threads < 1 {
			threads = 1
		}
		wo, err := warmed("without", threads, sc.Seed+int64(i))
		if err != nil {
			return nil, err
		}
		stop := make(chan struct{})
		streamed := make(chan error, 1)
		go func() { streamed <- stream.run(updateRate, stop) }()
		wi, err := warmed("with", threads, sc.Seed+1000+int64(i))
		close(stop)
		if serr := <-streamed; serr != nil {
			return nil, serr
		}
		if err != nil {
			return nil, err
		}
		rep.Points = append(rep.Points, wo, wi)

		norm := 0.0
		if wo.QPS > 0 {
			norm = wi.QPS / wo.QPS
		}
		through.Rows = append(through.Rows, []string{wo.cell("threads"), wo.cell("QPS"), wi.cell("QPS"),
			fmt.Sprintf("%.3f", norm), fmt.Sprintf("%.1f%%", 100*(1-norm))})
		resp.Rows = append(resp.Rows, []string{wo.cell("threads"), wo.cell("mean"), wi.cell("mean"), wo.cell("p99"), wi.cell("p99")})
	}
	rep.Tables = []Table{through, resp}
	// Proof the competing load was real.
	rep.Stats["applied_during_run"] = applied.Load()
	rep.notef("real-time updates applied during the 'with' passes: %d", applied.Load())
	return rep, nil
}

// runFig13 sweeps client threads 1, 3, …, sc.Threads (the paper's x-axis
// runs to 35) for the saturation curve of Fig. 13(a), and prints the full
// response-time CDF of the saturating point for Fig. 13(b).
func runFig13(sc Scale) (*Report, error) {
	c, err := start(sc, 12, cluster.Config{Brokers: 3, Blenders: 3, NLists: 64})
	if err != nil {
		return nil, err
	}
	defer c.Close()

	rep := &Report{Title: "Figure 13. Query performance scalability"}
	blobs := workload.MakeQueryBlobs(c.Catalog, 64, sc.Seed)
	var best Point
	for threads := 1; threads <= sc.Threads; threads += 2 {
		p, err := measure(c, "sweep", workload.QueryLoadConfig{
			Concurrency: threads, Duration: sc.Duration, Blobs: blobs, Seed: sc.Seed + int64(threads),
		})
		if err != nil {
			return nil, err
		}
		rep.Points = append(rep.Points, p)
		if p.QPS > best.QPS {
			best = p
		}
	}
	sweep := pointTable("(a) Throughput vs concurrent client threads", []string{"threads", "QPS", "mean", "p99", "errors"}, rep.Points)
	sweep.Notes = []string{"", fmt.Sprintf("saturation: %.0f QPS at %d threads (paper: ≈1800 QPS, saturating in the 1–35 thread sweep)", best.QPS, best.Threads)}
	cdf := Table{Caption: "(b) Response time CDF at maximum throughput", Header: []string{"latency", "CDF"}}
	if best.latency != nil {
		for _, p := range best.latency.CDF(24) {
			cdf.Rows = append(cdf.Rows, []string{fmtDur(p.Latency), fmt.Sprintf("%.4f", p.Fraction)})
		}
	}
	rep.Tables = []Table{sweep, cdf}
	rep.notef("max response %s, p99 %s (paper: max 2.1s, p99 0.3s)", fmtDur(best.Max), fmtDur(best.P99))
	return rep, nil
}
