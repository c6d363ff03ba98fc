package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"jdvs/internal/cluster"
	"jdvs/internal/core"
	"jdvs/internal/msg"
	"jdvs/internal/search/blender"
	"jdvs/internal/search/broker"
	"jdvs/internal/search/client"
	"jdvs/internal/search/frontend"
	"jdvs/internal/workload"
)

// span is one timed call at a layer boundary. Spans of one request share
// req_id; parent names the boundary that would have caused this call in a
// nested execution. Times are nanoseconds since the traced pass began.
type span struct {
	Req    int    `json:"req_id"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent string `json:"parent"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is the untraced pass the overhead is measured against.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func (t *tracer) record(req int, name, parent string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{req, name, int64(start.Sub(t.t0)), int64(end.Sub(t.t0)), parent})
	t.mu.Unlock()
}

// timed runs f for requests 0..n-1 one after another, records a span for
// each and returns the durations in microseconds.
func (t *tracer) timed(name, parent string, n int, f func(i int)) []float64 {
	d := make([]float64, n)
	for i := range d {
		start := time.Now()
		f(i)
		end := time.Now()
		d[i] = us(end.Sub(start))
		t.record(i, name, parent, start, end)
	}
	return d
}

func (t *tracer) medianUs(name, parent string, n int, f func(i int)) float64 {
	return median(t.timed(name, parent, n, f))
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes turns per-request durations at nested boundaries into each
// boundary's self time: its duration minus its child's, per request, then
// the median. chain lists boundaries outermost first; the innermost keeps
// its whole duration.
func selfTimes(chain []string, dur map[string][]float64) map[string]float64 {
	self := make(map[string]float64, len(chain))
	for b, name := range chain {
		own := dur[name]
		if b == len(chain)-1 {
			self[name] = median(own)
			continue
		}
		child := dur[chain[b+1]]
		diff := make([]float64, len(own))
		for i := range own {
			diff[i] = own[i] - child[i]
		}
		self[name] = median(diff)
	}
	return self
}

// probe is a stack of tiers the benchmark starts over the cluster's own
// searchers, with the cluster's tier configuration, because the cluster
// exposes only its frontend and its searchers. Each boundary gets a stack
// of its own, so its caches have never seen the trace requests: the first
// replay of a request is the miss path and the second the hit path.
type probe struct {
	broker  *broker.Broker
	blender *blender.Blender
	front   *frontend.Frontend
	cl      *client.Client
}

func (p *probe) Close() {
	if p.cl != nil {
		p.cl.Close()
	}
	if p.front != nil {
		p.front.Close()
	}
	if p.blender != nil {
		p.blender.Close()
	}
	if p.broker != nil {
		p.broker.Close()
	}
}

// newProbe starts depth tiers (1 broker, 2 +blender, 3 +frontend) and a
// client to the outermost. The tier configurations repeat cluster.startTiers
// field for field, the cluster having no exported way to hand them out; a
// tier option added to cluster.Config has to be added here too, or the
// self times stop summing to the client.query median (trace.self_sum_frac).
func newProbe(c *cluster.Cluster, cfg cluster.Config, depth int) (*probe, error) {
	p := &probe{}
	var groups [][]string
	for part := 0; part < c.Partitions(); part++ {
		var replicas []string
		for r := 0; r < c.Replicas(); r++ {
			replicas = append(replicas, c.Searcher(part, r).Addr())
		}
		groups = append(groups, replicas)
	}
	var err error
	p.broker, err = broker.New(broker.Config{
		PartitionReplicas: groups,
		HedgeQuantile:     cfg.HedgeQuantile,
		HedgeMinDelay:     cfg.HedgeMinDelay,
		HedgeMaxFraction:  cfg.HedgeMaxFraction,
		HedgeWarmup:       cfg.HedgeWarmup,
		ResultCacheSize:   cfg.ResultCacheSize,
		ResultCacheMaxLag: cfg.ResultCacheMaxLag,
		ResultCachePoll:   cfg.ResultCachePoll,
	})
	if err != nil {
		return nil, err
	}
	addr := p.broker.Addr()
	if depth >= 2 {
		p.blender, err = blender.New(blender.Config{
			Brokers:          []string{addr},
			Extractor:        c.Extractor,
			FeatureCacheSize: cfg.FeatureCacheSize,
			Oversample:       blenderOversample,
		})
		if err != nil {
			p.Close()
			return nil, err
		}
		addr = p.blender.Addr()
	}
	if depth >= 3 {
		p.front, err = frontend.New(frontend.Config{Blenders: []string{addr}})
		if err != nil {
			p.Close()
			return nil, err
		}
		addr = p.front.Addr()
	}
	if p.cl, err = client.Dial(addr, 1); err != nil {
		p.Close()
		return nil, err
	}
	return p, nil
}

// blenderOversample is the factor by which a blender multiplies TopK on the
// way down. The probe blenders are given it; the cluster's own blender runs
// on blender.New's default, which cluster.Config cannot set and no exported
// name carries, so this 3 has to follow that default by hand (blender.go,
// "cfg.Oversample = 3"). If it drifts, broker.search and below are timed
// and judged for recall at a TopK the cluster never asks for.
const blenderOversample = 3

// tracedPass replays the same seeded requests one at a time at successively
// deeper boundaries and derives the per-layer timings. These are replays
// of one request at each boundary, not one nested execution.
func tracedPass(ctx context.Context, c *cluster.Cluster, sp spec, pool *traffic, mix *workload.MixGen, rep *report, opt options) error {
	// Trace requests are fresh photos the cluster has never seen, so that
	// the first replay misses every cache.
	trSpec := sp
	trSpec.pool = traceRequests
	tr := makeTraffic(trSpec, c.Catalog, opt.seed+1)
	n := traceRequests
	top := make([]*core.SearchRequest, n)  // as a client sends features
	deep := make([]*core.SearchRequest, n) // as a blender fans them out
	for i := 0; i < n; i++ {
		req, err := tr.searchRequest(c, i, topK)
		if err != nil {
			return err
		}
		top[i] = req
		d := *req
		d.TopK = topK * blenderOversample
		deep[i] = &d
	}

	front, err := client.Dial(c.FrontendAddr(), 1)
	if err != nil {
		return err
	}
	defer front.Close()
	var probes []*probe
	defer func() {
		for _, p := range probes {
			p.Close()
		}
	}()
	for depth := 1; depth <= 3; depth++ {
		p, err := newProbe(c, sp.cfg, depth)
		if err != nil {
			return err
		}
		probes = append(probes, p)
	}
	brokerP, blenderP, frontP := probes[0], probes[1], probes[2]
	searchers, closeSearchers, err := searcherClients(c)
	if err != nil {
		return err
	}
	defer closeSearchers()

	var firstErr error
	var errMu sync.Mutex
	note := func(err error) {
		if err != nil {
			errMu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			errMu.Unlock()
		}
	}
	query := func(cl *client.Client) func(i int) {
		return func(i int) { _, err := cl.Query(ctx, tr.query(i)); note(err) }
	}
	search := func(cl *client.Client, reqs []*core.SearchRequest) func(i int) {
		return func(i int) { _, err := cl.SearchFeature(ctx, reqs[i]); note(err) }
	}

	// Overhead: the same requests through the frontend by one client, once
	// without recording and once with, on pool entries whose cache state is
	// settled by a discarded pass.
	settle := func(i int) { _, err := front.Query(ctx, pool.query(i%len(pool.blobs))); note(err) }
	(*tracer)(nil).timed("", "", n, settle)
	untraced := median((*tracer)(nil).timed("", "", n, settle))
	tc := &tracer{t0: time.Now()}
	traced := tc.medianUs("client.query.settled", "", n, settle)
	rep.layer("trace.overhead_frac", ratio(traced-untraced, untraced), "share")

	// The boundaries, outermost first. A request visits every boundary
	// before the next request starts, so that one request's durations are
	// taken under the same machine conditions and their differences mean
	// something; at the tiers that can cache it is sent twice back to back.
	type boundary struct {
		name, parent string
		call         func(i int)
	}
	tiers := []boundary{
		{"client.query", "", query(front)},
		{"frontend.search", "client.query", search(frontP.cl, top)},
		{"blender.search", "frontend.search", search(blenderP.cl, top)},
		{"broker.search", "blender.search", search(brokerP.cl, deep)},
		// The probe blender's broker holds this request's page by now, so
		// a query by image differs between its two replays only by the
		// feature cache.
		{"blender.query", "frontend.search", query(blenderP.cl)},
	}
	parts := c.Partitions()
	dur := map[string][]float64{"searcher.search": make([]float64, n), "index.search": make([]float64, n)}
	hit := map[string][]float64{}
	for _, b := range tiers {
		dur[b.name], hit[b.name] = make([]float64, n), make([]float64, n)
	}
	skew := make([]float64, n)
	per := make([]float64, parts)
	var scanned float64
	for i := 0; i < n && ctx.Err() == nil; i++ {
		// One discarded query first: after the in-process searches of the
		// previous request the runtime's threads are parked, and the first
		// boundary alone would pay for waking them, which a system under
		// load never does.
		settle(i)
		for _, b := range tiers {
			for pass, into := range [][]float64{dur[b.name], hit[b.name]} {
				start := time.Now()
				b.call(i)
				end := time.Now()
				into[i] = us(end.Sub(start))
				label := b.name
				if pass == 1 {
					label += ".repeat"
				}
				tc.record(i, label, b.parent, start, end)
			}
		}
		// Searchers: every partition at once, as the broker does; the
		// span that matters is the slowest.
		var wg sync.WaitGroup
		for p := 0; p < parts; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				start := time.Now()
				_, err := searchers[p].SearchFeature(ctx, deep[i])
				end := time.Now()
				note(err)
				per[p] = us(end.Sub(start))
				tc.record(i, fmt.Sprintf("searcher.search[%d]", p), "broker.search", start, end)
			}(p)
		}
		wg.Wait()
		sorted := append([]float64(nil), per...)
		sort.Float64s(sorted)
		dur["searcher.search"][i] = sorted[parts-1]
		skew[i] = sorted[parts-1] - percentile(sorted, 50)
		// Shards in process, one partition after another; the slowest is
		// the one the searcher span above waited for.
		for p := 0; p < parts; p++ {
			start := time.Now()
			resp, err := c.Searcher(p, 0).Shard().Search(deep[i])
			end := time.Now()
			note(err)
			if resp != nil {
				scanned += float64(resp.Scanned)
			}
			if d := us(end.Sub(start)); d > dur["index.search"][i] {
				dur["index.search"][i] = d
			}
			tc.record(i, fmt.Sprintf("index.search[%d]", p), fmt.Sprintf("searcher.search[%d]", p), start, end)
		}
	}
	if firstErr != nil {
		return fmt.Errorf("traced pass: %w", firstErr)
	}

	chain := []string{"frontend.search", "blender.search", "broker.search", "searcher.search", "index.search"}
	self := selfTimes(chain, dur)
	rep.layer("frontend.self_us", self["frontend.search"], "us")
	rep.layer("blender.self_us", self["blender.search"], "us")
	rep.layer("broker.self_us", self["broker.search"], "us")
	rep.layer("searcher.self_us", self["searcher.search"], "us")
	rep.layer("index.self_us", self["index.search"], "us")
	rep.layer("broker.fanout_wait_us", median(dur["searcher.search"]), "us")
	rep.layer("broker.fanout_skew_us", median(skew), "us")
	rep.layer("broker.miss_us", median(dur["broker.search"]), "us")
	rep.layer("broker.hit_us", median(hit["broker.search"]), "us")
	rep.layer("blender.miss_us", median(dur["blender.query"]), "us")
	rep.layer("blender.hit_us", median(hit["blender.query"]), "us")
	rep.layer("client.query_us", median(dur["client.query"]), "us")
	rep.layer("client.query_repeat_us", median(hit["client.query"]), "us")

	// Direct calls into single layers, and the update path stage by stage.
	events := make([]*msg.ProductUpdate, 0, traceEvents)
	for len(events) < traceEvents {
		u, _, _, err := mix.Next()
		if err != nil {
			return err
		}
		events = append(events, u)
	}
	if err := directLayers(ctx, tc, c, tr, deep, events, scanned/float64(n*parts), rep); err != nil {
		return fmt.Errorf("direct layer timings: %w", err)
	}
	visibleMs := rep.perLayer["client.update_visible_p50_ms"].Value
	rep.layer("mq.dwell_ms", visibleMs-(rep.perLayer["indexer.route_us"].Value+rep.perLayer["indexer.apply_us"].Value)/1000, "ms") // computed

	shapeCheck(sp, rep, self)
	return tc.write(filepath.Join(traceDir, "trace-"+sp.name+".jsonl"))
}

// shapeCheck asserts that the workload still has the shape it was chosen
// for and prints the verdict. It does not decide correctness: a change that
// legitimately moves a share reports it here and the workload is re-sized
// in a change of its own.
func shapeCheck(sp spec, rep *report, self map[string]float64) {
	var bad []string
	check := func(ok bool, format string, a ...any) {
		line := fmt.Sprintf(format, a...)
		if ok {
			fmt.Fprintf(os.Stderr, "shape ok:   %s\n", line)
		} else {
			fmt.Fprintf(os.Stderr, "shape FAIL: %s\n", line)
			bad = append(bad, line)
		}
	}
	l := rep.perLayer
	query := l["client.query_us"].Value
	share := ratio(l["index.self_us"].Value, query)
	rep.layer("trace.index_share", share, "share")
	switch sp.name {
	case "scan_uniform":
		check(share >= 0.4, "index.search is %.2f of client.query, want >= 0.40", share)
	case "fanout_wide":
		check(share <= 0.1, "index.search is %.2f of client.query, want <= 0.10", share)
	case "hot_zipf":
		for _, name := range []string{"blender.feature_cache_hit_ratio", "broker.result_cache_hit_ratio"} {
			v := l[name].Value
			check(v >= 0.60 && v <= 0.97, "%s %.3f, want within 0.60..0.97", name, v)
		}
	case "mixed_realtime":
		v := l["client.updates_applied_in_time"].Value
		check(v >= 0.95, "%.3f of published events applied during the timed phases, want >= 0.95", v)
	}
	sum := l["blender.extract_us"].Value
	for _, v := range self {
		sum += v
	}
	rep.layer("trace.self_sum_frac", ratio(sum, query), "share")
	check(sum >= 0.85*query && sum <= 1.15*query, "self times sum to %.1f us against a client.query median of %.1f us, want within 15%%", sum, query)
	ok := 1.0
	if len(bad) > 0 {
		ok = 0
	}
	rep.layer("trace.shape_ok", ok, "count")
}
