package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"jdvs/internal/cluster"
	"jdvs/internal/workload"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one run measured. endToEnd holds what a user of the
// system sees; perLayer what single layers did.
type report struct {
	attempted, failed int64
	endToEnd          map[string]metric
	perLayer          map[string]metric
	// problems lists every gate the run failed; empty means correct.
	problems []string
	windows  map[string][]float64
}

func (r *report) e2e(name string, v float64, unit string)   { r.endToEnd[name] = metric{v, unit} }
func (r *report) layer(name string, v float64, unit string) { r.perLayer[name] = metric{v, unit} }
func (r *report) problem(format string, a ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, a...))
}

type options struct {
	seed    int64
	seconds float64
	trace   bool
}

// procSample is the process-wide counters a phase is differenced over.
type procSample struct {
	cpu     time.Duration
	gcCPU   float64 // seconds
	mallocs uint64
	bytes   uint64
	pauseNs uint64
	heap    uint64
}

func sampleProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	return procSample{
		cpu:     cpuTime(),
		gcCPU:   gc[0].Value.Float64(),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		pauseNs: ms.PauseTotalNs,
		heap:    ms.HeapInuse,
	}
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// setup starts the workload's cluster setupRepeats times and keeps the
// last; the others are closed and their memory returned before the next
// start, so every start sees the same process.
func setup(ctx context.Context, sp spec, t *tracker) (*cluster.Cluster, float64, error) {
	cfg := sp.cfg
	cfg.OnApplied = t.onApplied
	var c *cluster.Cluster
	var took []float64
	for i := 0; i < setupRepeats; i++ {
		if c != nil {
			c.Close()
			c = nil
			debug.FreeOSMemory()
		}
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		t0 := time.Now()
		var err error
		if c, err = cluster.Start(cfg); err != nil {
			return nil, 0, fmt.Errorf("cluster.Start: %w", err)
		}
		took = append(took, time.Since(t0).Seconds())
	}
	// The serving phases start from a collected heap too: what the last
	// start left behind would otherwise decide, by when the next collection
	// happens to run, whether a small workload's peak_rss_mb is set here or
	// a tenth higher during warm-up.
	debug.FreeOSMemory()
	return c, median(took), nil
}

// runWorkload takes one workload through its phases: setup, warm-up, closed
// loop, open loop, updates, quality and, when asked, the traced pass.
func runWorkload(ctx context.Context, sp spec, opt options) (*report, error) {
	rep := &report{endToEnd: map[string]metric{}, perLayer: map[string]metric{}, windows: map[string][]float64{}}
	measured := time.Duration(opt.seconds * float64(time.Second))
	closedDur := time.Duration(float64(measured) * closedShare)
	openDur := measured - closedDur

	baseline := runtime.NumGoroutine()
	last := time.Now()
	lap := func(phase string) { // where the run's wall time went, for sizing
		now := time.Now()
		fmt.Fprintf(os.Stderr, "phase %-8s %6.2fs\n", phase, now.Sub(last).Seconds())
		last = now
	}
	streamCap := 0
	if sp.stream {
		streamCap = int(streamRate * (warmup + measured + 10*time.Second).Seconds())
	}
	trk := newTracker(streamCap + pacedEvents + burstEvents + traceEvents)

	c, setupS, err := setup(ctx, sp, trk)
	if err != nil {
		return nil, err
	}
	lap("setup")
	var closers []func()
	closeAll := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
		closers = nil
	}
	defer closeAll()
	closers = append(closers, c.Close)

	// The pool is drawn before anything else touches the catalog: the
	// update mix owns Catalog.Products from here on.
	tr := makeTraffic(sp, c.Catalog, opt.seed)
	mix := workload.NewMix(workload.MixConfig{Seed: opt.seed}, c.Catalog, c.Images)

	qs := make([]*querier, clients)
	for i := range qs {
		if qs[i], err = dialQuerier(c.FrontendAddr(), tr); err != nil {
			return nil, err
		}
		closers = append(closers, qs[i].cl.Close)
	}

	// Update stream beside the queries (mixed_realtime only).
	var streamRun updateRun
	var streamWG sync.WaitGroup
	stopStream := make(chan struct{})
	if sp.stream {
		streamWG.Add(1)
		go func() {
			defer streamWG.Done()
			streamRun = pacedUpdates(ctx, c, trk, mix, streamRate, 0, stopStream)
		}()
	}
	endStream := sync.OnceFunc(func() { close(stopStream); streamWG.Wait() })
	closers = append(closers, endStream)

	closedLoop(ctx, qs, 0, warmup) // discarded: caches fill, hedging warms up
	lap("warm-up")

	stats0, err := c.Stats(ctx)
	if err != nil {
		return nil, err
	}
	timedFrom := int(trk.next.Load())
	p0 := sampleProc()
	closed := closedLoop(ctx, qs, clients, closedDur)
	lap("closed")
	open := queryOpenLoop(ctx, qs, 2*clients, sp.openRate, openDur)
	p2 := sampleProc()
	timedTo := int(trk.next.Load())
	lap("open")
	rss := peakRSSMB()
	stats1, err := c.Stats(ctx)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Updates. With a stream, visibility was measured beside the queries
	// and the share still pending when the queries end is recorded before
	// the drain; otherwise a paced stretch runs now on the idle cluster.
	var appliedInTime int
	var upd updateRun
	if sp.stream {
		_, _, pending := trk.visible(timedFrom, timedTo)
		appliedInTime = timedTo - timedFrom - pending
		endStream()
		upd = streamRun
		upd.from, upd.to = timedFrom, timedTo
		if !waitDrained(ctx, c, 30*time.Second) {
			rep.problem("update stream did not drain")
		}
	} else {
		upd = pacedUpdates(ctx, c, trk, mix, streamRate, pacedEvents, nil)
		waitDrained(ctx, c, 30*time.Second)
		appliedInTime = upd.to - upd.from
	}
	pubAt, visNs, pending := trk.visible(upd.from, upd.to)
	drainEPS, drainCPU, burstFailed := burst(ctx, c, trk, mix)
	updFailed := upd.failed + pending + burstFailed
	published := upd.to - upd.from + burstEvents
	stats2, err := c.Stats(ctx)
	if err != nil {
		return nil, err
	}
	lap("updates")

	q, err := measureQuality(ctx, c, tr, qualityQueries)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	lap("quality")

	// End-to-end metrics.
	queries := closed.attempted + open.attempted
	qFailed := closed.failed + open.failed
	openLat := sortedMs(open.latNs)
	limitNs := int64(sp.slaMs * 1e6)
	var missed int64
	for _, v := range open.latNs {
		if v < 0 || v > limitNs {
			missed++
		}
	}
	rep.attempted = queries + int64(published)
	rep.failed = qFailed + int64(updFailed)
	// Timings are taken per window (per round for the drain). Closed-loop
	// throughput and CPU are read from the median window, the open-loop
	// median latency and the drain rate from the calmest one; what the
	// calmest window cannot see, sla_met_frac counts. See "Windows" in
	// README.md.
	openP50, openP95 := windowPercentiles(open.dueNs, open.latNs, int(openDur/window), 95)
	visWindows := 0
	if len(pubAt) > 0 {
		visWindows = int((time.Duration(pubAt[len(pubAt)-1]) + window/2) / window)
	}
	visP50, visP95 := windowPercentiles(pubAt, visNs, visWindows, 95)
	for name, w := range map[string][]float64{"query_qps": closed.qps, "cpu_ms_per_query": closed.cpuMs, "query_p50_ms": openP50, "query_p95_ms": openP95,
		"update_visible_p50_ms": visP50, "update_visible_p95_ms": visP95, "update_drain_eps": drainEPS, "update_cpu_us_per_event": drainCPU} {
		fmt.Fprintf(os.Stderr, "windows %-22s %.4g\n", name, w)
		rep.windows[name] = w
	}
	rep.e2e("setup_s", setupS, "s")
	rep.e2e("query_qps", median(closed.qps), "1/s")
	rep.e2e("query_p50_ms", lowest(openP50), "ms")
	// The whole open phase, every request: the share answered within the
	// workload's latency limit, a failed request counting as late. A stall
	// of the program's own making moves this one, however rare.
	rep.e2e("sla_met_frac", 1-ratio(float64(missed), float64(open.attempted)), "share")
	rep.e2e("cpu_ms_per_query", median(closed.cpuMs), "ms")
	rep.e2e("peak_rss_mb", rss, "MB")
	rep.e2e("recall_at_10", q.recall, "share")
	rep.e2e("update_drain_eps", highest(drainEPS), "1/s")
	// The 95th percentile does not repeat within a quarter from run to run
	// whichever window it is read from (calmest, median, or the phase as a
	// whole), so it is a per-layer metric, all three ways; the share of
	// requests inside the latency limit stands in for it above.
	// Publish→visible is 50 µs of goroutine wake-up on an idle cluster and
	// does not repeat either; the failure shares and the harness's own
	// health read 0 on a good run.
	rep.layer("client.query_p95_ms", lowest(openP95), "ms")
	rep.layer("client.update_visible_p50_ms", median(visP50), "ms")
	rep.layer("client.update_visible_p95_ms", median(visP95), "ms")
	rep.layer("indexer.drain_median_eps", median(drainEPS), "1/s")
	rep.layer("indexer.cpu_us_per_event", median(drainCPU), "us")

	queryFailFrac := ratio(float64(qFailed), float64(queries))
	updateFailFrac := ratio(float64(updFailed), float64(published))
	lateMs := sortedMs(open.lateNs)
	achieved := ratio(float64(open.attempted), open.wall.Seconds())
	rep.layer("client.query_fail_frac", queryFailFrac, "share")
	rep.layer("client.update_fail_frac", updateFailFrac, "share")
	rep.layer("client.closed_attempted", float64(closed.attempted), "count")
	rep.layer("client.closed_failed", float64(closed.failed), "count")
	rep.layer("client.open_attempted", float64(open.attempted), "count")
	rep.layer("client.open_failed", float64(open.failed), "count")
	rep.layer("client.query_median_p95_ms", median(openP95), "ms")
	rep.layer("client.query_phase_p95_ms", supported(openLat, 95), "ms")
	rep.layer("client.query_p99_ms", supported(openLat, 99), "ms")
	rep.layer("client.query_max_ms", percentile(openLat, 100), "ms")
	rep.layer("client.self_hit_rate", q.selfHit, "share")
	rep.layer("client.page_fill", q.pageFill, "share")
	rep.layer("gen.offered_qps", sp.openRate, "1/s")
	rep.layer("gen.achieved_qps", achieved, "1/s")
	rep.layer("gen.late_p50_ms", percentile(lateMs, 50), "ms")
	rep.layer("gen.late_p99_ms", supported(lateMs, 99), "ms")
	rep.layer("gen.update_late_p99_ms", upd.lateP99Ms, "ms")

	if q.recall < 0.95 {
		rep.problem("recall_at_10 %.4f < 0.95", q.recall)
	}
	// A photo of a product that does not bring that product back means the
	// pool's product IDs no longer belong to its photos (see makeTraffic),
	// or the system lost its way; the lowest healthy rate is 0.65, on
	// mixed_realtime, where the stream delists and reprices products.
	if q.selfHit < 0.3 {
		rep.problem("self-hit rate %.3f < 0.3", q.selfHit)
	}
	if queryFailFrac > 0.01 {
		rep.problem("query_fail_frac %.4f > 0.01", queryFailFrac)
	}
	if updateFailFrac > 0.01 {
		rep.problem("update_fail_frac %.4f > 0.01", updateFailFrac)
	}
	// A generator that could not keep its schedule measured a different
	// workload: the run's timings are invalid, not slow. It is flagged and
	// not failed: about once in 200 runs the machine stalls for most of a
	// run, every timing of such a run is far off and falls outside the
	// quartiles the driver compares, while a failed run would fail the
	// benchmark as a whole.
	onSchedule := 1.0
	if achieved < 0.98*sp.openRate || percentile(lateMs, 50) > genLateLimitMs {
		onSchedule = 0
		fmt.Fprintf(os.Stderr, "INVALID: open-loop generator off schedule: achieved %.1f of %.1f req/s, median send %.3f ms late\n", achieved, sp.openRate, percentile(lateMs, 50))
	}
	rep.layer("gen.on_schedule", onSchedule, "count")

	layerCounters(rep, stats0, stats1, stats2, p0, p2, float64(closed.completed()+open.completed()), qs)
	rep.layer("searcher.lag_max", float64(upd.lagMax), "count")
	rep.layer("indexer.reuse_ratio", ratio(float64(trk.reused.Load()), float64(trk.additions.Load())), "share")
	rep.layer("client.updates_applied_in_time", ratio(float64(appliedInTime), float64(upd.to-upd.from)), "share")

	if opt.trace {
		if err := tracedPass(ctx, c, sp, tr, mix, rep, opt); err != nil {
			return nil, err
		}
		lap("trace")
	}

	// Everything down, then the goroutine count must fall back to where it
	// was before the first cluster started.
	closeAll()
	leaked := 0
	for wait := time.Now().Add(5 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if leaked = runtime.NumGoroutine() - baseline; leaked <= 0 || time.Now().After(wait) {
			break
		}
	}
	if leaked < 0 {
		leaked = 0
	}
	lap("close")
	rep.layer("proc.goroutines_leaked", float64(leaked), "count")
	if leaked > 0 {
		rep.problem("%d goroutines leaked", leaked)
	}
	return rep, nil
}

// genLateLimitMs is how late the median open-loop send may be before the
// run is flagged invalid (gen.on_schedule): a generator that is behind on
// every other send has lost its schedule. A single stall of the machine
// must not invalidate a run, and does not hide either: lateness is charged
// to the requests' latency and gen.late_p99_ms reports it.
const genLateLimitMs = 1.0

// layerCounters fills the per-layer metrics that come from differencing
// Cluster.Stats and runtime counters across the closed and open phases.
func layerCounters(rep *report, s0, s1, s2 *cluster.Stats, p0, p2 procSample, queries float64, qs []*querier) {
	var scanned, probed float64
	for _, q := range qs {
		scanned += float64(q.scanned.Load())
		probed += float64(q.probed.Load())
	}
	// The queriers also counted the warm-up; so did the frontend, so the
	// per-query averages use the frontend's total.
	allQueries := float64(s1.Frontend.Queries)
	rep.layer("index.scanned_per_query", ratio(scanned, allQueries), "count")
	rep.layer("index.probed_per_query", ratio(probed, allQueries), "count")
	rep.layer("index.useful_ratio", ratio(topK*allQueries, scanned), "share")

	var filtered, refreshes, reusedIns, applyErr, dropped, images, bytes float64
	var rtAvg, rtP99 float64
	for i := range s1.Searchers {
		filtered += float64(s1.Searchers[i].Index.FilteredSearches - s0.Searchers[i].Index.FilteredSearches)
		refreshes += float64(s2.Searchers[i].Index.FeatureRefreshes - s0.Searchers[i].Index.FeatureRefreshes)
		reusedIns += float64(s2.Searchers[i].Index.ReusedInserts - s0.Searchers[i].Index.ReusedInserts)
		applyErr += float64(s2.Searchers[i].ApplyErrors)
		dropped += float64(s2.Searchers[i].Dropped)
		images += float64(s1.Searchers[i].Index.Images)
		bytes += float64(s1.Searchers[i].Index.PQCodeBytes + s1.Searchers[i].Index.FeatureHeapBytes)
		rtAvg += float64(s2.Searchers[i].RTAvgMicros) / float64(len(s2.Searchers))
		if v := float64(s2.Searchers[i].RTP99Micros); v > rtP99 {
			rtP99 = v
		}
	}
	rep.layer("index.filtered_searches", filtered, "count")
	rep.layer("index.feature_refreshes", refreshes, "count")
	rep.layer("index.reused_inserts", reusedIns, "count")
	rep.layer("index.bytes_per_image", ratio(bytes, images), "B")
	rep.layer("searcher.apply_errors", applyErr, "count")
	rep.layer("searcher.dropped", dropped, "count")
	rep.layer("searcher.rt_avg_us", rtAvg, "us")
	rep.layer("searcher.rt_p99_us", rtP99, "us")

	b0, b1 := s0.Brokers[0], s1.Brokers[0]
	bq := float64(b1.Queries - b0.Queries)
	hedges := float64(b1.Hedges - b0.Hedges)
	rcHits := float64(b1.ResultCacheHits - b0.ResultCacheHits)
	rcMisses := float64(b1.ResultCacheMisses - b0.ResultCacheMisses)
	rep.layer("broker.result_cache_hit_ratio", ratio(rcHits, rcHits+rcMisses), "share")
	rep.layer("broker.stale_evictions", float64(b1.ResultCacheStaleEvictions-b0.ResultCacheStaleEvictions), "count")
	rep.layer("broker.hedges_per_query", ratio(hedges, bq), "share")
	rep.layer("broker.hedge_win_ratio", ratio(float64(b1.HedgeWins-b0.HedgeWins), hedges), "share")
	rep.layer("broker.failures", float64(b1.Failures-b0.Failures), "count")
	rep.layer("broker.partials", float64(b1.Partials-b0.Partials), "count")

	fcHits := float64(s1.Blenders[0].FeatureCacheHits - s0.Blenders[0].FeatureCacheHits)
	fcMisses := float64(s1.Blenders[0].FeatureCacheMisses - s0.Blenders[0].FeatureCacheMisses)
	rep.layer("blender.feature_cache_hit_ratio", ratio(fcHits, fcHits+fcMisses), "share")
	rep.layer("frontend.retries", float64(s1.Frontend.Retries-s0.Frontend.Retries), "count")

	rep.layer("proc.allocs_per_query", ratio(float64(p2.mallocs-p0.mallocs), queries), "count")
	rep.layer("proc.alloc_kb_per_query", ratio(float64(p2.bytes-p0.bytes)/1024, queries), "KB")
	rep.layer("proc.gc_cpu_frac", ratio(p2.gcCPU-p0.gcCPU, (p2.cpu-p0.cpu).Seconds()), "share")
	rep.layer("proc.gc_pause_ms", float64(p2.pauseNs-p0.pauseNs)/1e6, "ms")
	rep.layer("proc.heap_mb", float64(p2.heap)/(1<<20), "MB")
}

// printTable writes every metric of m to w, sorted by name.
func printTable(w *os.File, title string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "-- %s\n", title)
	for _, n := range names {
		fmt.Fprintf(w, "%-36s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}
