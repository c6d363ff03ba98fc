// Package broker implements the middle tier of Fig. 10: "a broker forwards
// the query to all the searchers it connects to and collects the partial
// search results from each searcher".
//
// A broker is assigned a subset of the index partitions; for each partition
// it knows every replica's address and spreads queries across replicas
// round-robin, failing over to the next replica when one fails, times out,
// or returns an undecodable response — the "multiple copies for
// availability" of §2.4.
//
// # Hedged requests
//
// Waiting on a single replica makes that replica's tail the query's tail.
// Each partition group therefore records every completed replica attempt in
// a sliding latency window (metrics.Window) and, once warmed up
// (Config.HedgeWarmup attempts), hedges: when the primary attempt has been
// in flight longer than the group's observed Config.HedgeQuantile latency
// (floored at Config.HedgeMinDelay), the same request is fired at the next
// replica in round-robin order and the first successful response wins; the
// loser is cancelled. Hedge volume is capped by a per-group token bucket
// that earns Config.HedgeMaxFraction of a hedge per query, so hedging adds
// at most that fraction of extra replica load no matter how slow the tail
// gets — past the budget, slow attempts fall back to plain sequential
// failover.
//
// Observability: Stats.Hedges / HedgeWins / HedgeCancels count hedges
// fired, queries won by the hedged attempt, and in-flight attempts
// abandoned because another attempt won; Stats.Groups carries each
// partition group's live p50/p95/p99 replica-attempt latencies, so the
// hedge win rate and the thresholds driving it are scrapeable from the
// same MethodStats endpoint production monitoring already reads.
package broker

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"jdvs/internal/core"
	"jdvs/internal/metrics"
	"jdvs/internal/rpc"
	"jdvs/internal/search"
	"jdvs/internal/topk"
)

// Config assembles a broker.
type Config struct {
	// PartitionReplicas maps each assigned partition to its replicas'
	// searcher addresses: PartitionReplicas[i] is the replica set of the
	// i-th partition this broker serves. Required, non-empty.
	PartitionReplicas [][]string
	// ConnsPerSearcher sizes each searcher connection pool (default 2).
	ConnsPerSearcher int
	// SearcherTimeout bounds each searcher attempt (default 5s); on
	// timeout the broker fails over to the partition's next replica, so a
	// hung searcher degrades one replica, not the query.
	SearcherTimeout time.Duration
	// QueryTimeout bounds the whole fan-out, failovers included. Without
	// it, a partition whose R replicas all time out burns R×SearcherTimeout
	// serially before the query returns. When the deadline expires the
	// broker returns the partial results it has (counted in
	// Stats.Partials). Default 3×SearcherTimeout; negative disables the
	// overall bound.
	QueryTimeout time.Duration

	// HedgeQuantile is the percentile of a partition group's recent
	// replica-attempt latencies after which a still-unanswered attempt is
	// hedged to the next replica (default 95, i.e. hedge once the attempt
	// is slower than 95% of recent attempts). Negative disables hedging.
	HedgeQuantile float64
	// HedgeMinDelay floors the hedge delay (default 1ms), so a group whose
	// p95 sits at microseconds does not hedge on scheduling noise.
	HedgeMinDelay time.Duration
	// HedgeMaxFraction caps hedged requests as a fraction of queries per
	// partition group (default 0.1). Enforced by a token bucket: each
	// query earns the group HedgeMaxFraction of a hedge, a hedge spends
	// one token, so hedges can never exceed this fraction of query volume
	// (plus a small warm-up burst) and hedging can never double cluster
	// load. Negative disables hedging.
	HedgeMaxFraction float64
	// HedgeWarmup is the minimum number of recorded replica attempts
	// before a group starts hedging (default 50) — below it there is no
	// trustworthy quantile to act on.
	HedgeWarmup int
	// HedgeWindow sizes the per-group latency sample window (default
	// metrics.DefaultWindowSize).
	HedgeWindow int

	// ResultCacheSize, when > 0, enables the broker's result cache: up to
	// this many encoded result pages keyed by request digest, invalidated
	// by the searchers' applied-offset watermarks (0 disables caching).
	ResultCacheSize int
	// ResultCacheMaxLag is how many queue offsets a covered shard may
	// advance past a cached page's watermark snapshot before the page is
	// considered stale (default 0: any advance invalidates).
	ResultCacheMaxLag int64
	// ResultCachePoll is how often the broker re-reads the searchers'
	// applied offsets over MethodStats (default 25ms; negative disables the
	// poller — tests then drive refreshes directly).
	ResultCachePoll time.Duration

	// Addr is the listen address (":0" for ephemeral).
	Addr string
}

// hedgeBudget is a token bucket in millitokens: credit() earns perQuery
// per query, take() spends hedgeCost per hedge. The cap bounds the burst a
// long hedge-free stretch can bank.
type hedgeBudget struct {
	milli    atomic.Int64
	perQuery int64
}

const (
	hedgeCost      = 1000 // millitokens per hedge
	hedgeBudgetCap = 8 * hedgeCost
)

func (hb *hedgeBudget) credit() {
	if hb.perQuery <= 0 {
		return
	}
	for {
		cur := hb.milli.Load()
		next := cur + hb.perQuery
		if next > hedgeBudgetCap {
			next = hedgeBudgetCap
		}
		if next == cur || hb.milli.CompareAndSwap(cur, next) {
			return
		}
	}
}

func (hb *hedgeBudget) take() bool {
	for {
		cur := hb.milli.Load()
		if cur < hedgeCost {
			return false
		}
		if hb.milli.CompareAndSwap(cur, cur-hedgeCost) {
			return true
		}
	}
}

type partitionGroup struct {
	b       *Broker
	addrs   []string
	pools   []*rpc.Pool
	next    atomic.Uint64
	timeout time.Duration

	// lat records completed replica attempts; its single tracked quantile
	// is the hedge trigger (Config.HedgeQuantile).
	lat    *metrics.Window
	budget hedgeBudget
}

// Broker is a running broker node.
type Broker struct {
	srv          *rpc.Server
	groups       []*partitionGroup
	addr         string
	queryTimeout time.Duration

	hedgeMinDelay time.Duration
	hedgeWarmup   uint64
	hedging       bool

	rcache *resultCache // nil when ResultCacheSize == 0

	queries      metrics.Counter
	failures     metrics.Counter
	partials     metrics.Counter
	hedges       metrics.Counter
	hedgeWins    metrics.Counter
	hedgeCancels metrics.Counter
}

// New connects to every assigned searcher and starts serving.
func New(cfg Config) (*Broker, error) {
	if len(cfg.PartitionReplicas) == 0 {
		return nil, errors.New("broker: no partitions assigned")
	}
	if cfg.ConnsPerSearcher <= 0 {
		cfg.ConnsPerSearcher = 2
	}
	if cfg.SearcherTimeout <= 0 {
		cfg.SearcherTimeout = 5 * time.Second
	}
	if cfg.QueryTimeout == 0 {
		cfg.QueryTimeout = 3 * cfg.SearcherTimeout
	}
	if cfg.HedgeQuantile == 0 {
		cfg.HedgeQuantile = 95
	}
	if cfg.HedgeMinDelay <= 0 {
		cfg.HedgeMinDelay = time.Millisecond
	}
	if cfg.HedgeMaxFraction == 0 {
		cfg.HedgeMaxFraction = 0.1
	}
	if cfg.HedgeWarmup <= 0 {
		cfg.HedgeWarmup = 50
	}
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	b := &Broker{
		groups:        make([]*partitionGroup, 0, len(cfg.PartitionReplicas)),
		queryTimeout:  cfg.QueryTimeout,
		hedgeMinDelay: cfg.HedgeMinDelay,
		hedgeWarmup:   uint64(cfg.HedgeWarmup),
		hedging:       cfg.HedgeQuantile > 0 && cfg.HedgeMaxFraction > 0,
	}
	perQuery := int64(0)
	if b.hedging {
		// Budget resolution is 1/hedgeCost (0.001): round, and floor at one
		// millitoken so a tiny positive fraction stays enabled instead of
		// silently truncating to zero.
		perQuery = int64(math.Round(cfg.HedgeMaxFraction * hedgeCost))
		if perQuery < 1 {
			perQuery = 1
		}
		if perQuery > hedgeCost {
			perQuery = hedgeCost // a fraction above 1 still means "at most one hedge per query"
		}
	}
	for _, replicas := range cfg.PartitionReplicas {
		if len(replicas) == 0 {
			b.closePools()
			return nil, errors.New("broker: partition with no replicas")
		}
		// Track the hedge quantile only when hedging can act on it; the
		// stats path reads exact on-demand quantiles, so a disabled broker
		// skips the periodic refresh sort entirely.
		var tracked []float64
		if b.hedging {
			tracked = []float64{cfg.HedgeQuantile}
		}
		g := &partitionGroup{
			b:       b,
			addrs:   replicas,
			timeout: cfg.SearcherTimeout,
			lat:     metrics.NewWindow(cfg.HedgeWindow, tracked...),
		}
		g.budget.perQuery = perQuery
		for _, addr := range replicas {
			pool, err := rpc.DialPool(addr, cfg.ConnsPerSearcher)
			if err != nil {
				b.closePools()
				return nil, fmt.Errorf("broker: dial searcher %s: %w", addr, err)
			}
			g.pools = append(g.pools, pool)
		}
		b.groups = append(b.groups, g)
	}
	if cfg.ResultCacheSize > 0 {
		poll := cfg.ResultCachePoll
		if poll == 0 {
			poll = 25 * time.Millisecond
		}
		b.rcache = newResultCache(b, cfg.ResultCacheSize, cfg.ResultCacheMaxLag, poll)
	}
	b.srv = rpc.NewServer()
	b.srv.Handle(search.MethodSearch, b.handleSearch)
	b.srv.Handle(search.MethodStats, b.handleStats)
	b.srv.Handle(search.MethodPing, func([]byte) ([]byte, error) { return nil, nil })
	addr, err := b.srv.Listen(cfg.Addr)
	if err != nil {
		b.closePools()
		return nil, err
	}
	b.addr = addr
	return b, nil
}

// Addr returns the broker's RPC address.
func (b *Broker) Addr() string { return b.addr }

// Close stops serving and closes searcher connections.
func (b *Broker) Close() {
	b.srv.Close()
	if b.rcache != nil {
		b.rcache.stop() // the watermark poller uses the pools; stop it first
	}
	b.closePools()
}

func (b *Broker) closePools() {
	for _, g := range b.groups {
		for _, p := range g.pools {
			p.Close()
		}
	}
}

// hedgeDelay returns how long to let the primary attempt run before
// hedging, and whether the group is ready to hedge at all (warmed up and
// quantile cache populated).
func (g *partitionGroup) hedgeDelay() (time.Duration, bool) {
	if !g.b.hedging || len(g.pools) < 2 {
		return 0, false
	}
	if g.lat.Count() < g.b.hedgeWarmup {
		return 0, false
	}
	d := g.lat.Tracked(0)
	if d <= 0 {
		return 0, false
	}
	if d < g.b.hedgeMinDelay {
		d = g.b.hedgeMinDelay
	}
	return d, true
}

// attempt is one replica attempt's outcome.
type attempt struct {
	resp   *core.SearchResponse
	err    error
	hedged bool
}

// doAttempt runs one replica attempt synchronously: per-attempt timeout,
// response decode, and latency recording. A delivered-but-undecodable
// response is an attempt failure (the caller fails over exactly like a
// timeout), so one corrupt replica cannot kill its whole partition.
//
// Cancelled losers are not recorded: their elapsed time is censored at the
// hedge delay, so feeding them (or skipping them — either way) drains the
// slow mode from the window once hedging engages. Under a persistently
// slow replica the tracked quantile therefore settles at the fast mode and
// HedgeMaxFraction's token bucket, not the quantile, becomes the governing
// cap — the budget is the load-safety invariant, the quantile only decides
// when hedging is worth starting.
func (g *partitionGroup) doAttempt(ctx context.Context, pool *rpc.Pool, payload []byte) (*core.SearchResponse, error) {
	begin := time.Now()
	attemptCtx, cancel := context.WithTimeout(ctx, g.timeout)
	defer cancel()
	raw, err := pool.Call(attemptCtx, search.MethodSearch, payload)
	var resp *core.SearchResponse
	if err == nil {
		resp, err = core.DecodeSearchResponse(raw)
		if err != nil {
			err = fmt.Errorf("broker: undecodable searcher response: %w", err)
		}
	}
	if !errors.Is(err, context.Canceled) {
		g.lat.Record(time.Since(begin))
	}
	return resp, err
}

// call queries one partition, trying each replica at most once starting
// from the round-robin cursor. Each attempt gets its own timeout so a hung
// replica costs one timeout, not the query. When the group's hedge trigger
// is armed, an attempt that outlives the hedge delay runs concurrently
// with the next replica and the first success wins; otherwise (hedging
// disabled, single replica, warm-up, or no quantile yet) attempts run
// sequentially with no extra goroutine or channel on the hot path.
func (g *partitionGroup) call(ctx context.Context, payload []byte) (*core.SearchResponse, error) {
	n := len(g.pools)
	// The cursor arithmetic stays in uint64: converting the counter to int
	// first goes negative once it passes the int range (2³¹ queries on a
	// 32-bit platform), and a negative modulo panics the index expression.
	start := g.next.Add(1)
	g.budget.credit()

	delay, armed := g.hedgeDelay()
	if !armed {
		// Sequential failover fast path.
		var lastErr error
		for i := 0; i < n; i++ {
			resp, err := g.doAttempt(ctx, g.pools[(start+uint64(i))%uint64(n)], payload)
			if err == nil {
				return resp, nil
			}
			g.b.failures.Inc()
			lastErr = err
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
		}
		return nil, lastErr
	}

	callCtx, cancelAll := context.WithCancel(ctx)
	defer cancelAll()

	// Buffered to n so a loser's goroutine can always deliver and exit even
	// after the winner returned — no leak, no blocked send.
	results := make(chan attempt, n)
	launched := 0
	fire := func(hedged bool) {
		pool := g.pools[(start+uint64(launched))%uint64(n)]
		launched++
		go func() {
			resp, err := g.doAttempt(callCtx, pool, payload)
			results <- attempt{resp: resp, err: err, hedged: hedged}
		}()
	}

	// The hedge timer measures the CURRENT primary attempt's age: a
	// sequential failover re-arms it, so a replacement attempt gets the
	// full delay before a budget token is spent hedging it.
	timer := time.NewTimer(delay)
	defer timer.Stop()
	hedgeC := timer.C

	fire(false)
	outstanding := 1
	// win books the stats for a winning attempt: any other in-flight
	// attempt loses and is aborted by the deferred cancelAll.
	win := func(r attempt) *core.SearchResponse {
		if outstanding > 0 {
			g.b.hedgeCancels.Add(int64(outstanding))
		}
		if r.hedged {
			g.b.hedgeWins.Inc()
		}
		return r.resp
	}
	// abort handles query-deadline expiry: a success may already sit in
	// the buffered results channel having raced the deadline — prefer it
	// over returning an error. Whatever is still truly in flight is
	// aborted by cancelAll and counted as failed attempts, since its
	// result is never read.
	abort := func() (*core.SearchResponse, error) {
		for outstanding > 0 {
			select {
			case r := <-results:
				outstanding--
				if r.err == nil {
					return win(r), nil
				}
				g.b.failures.Inc()
			default:
				g.b.failures.Add(int64(outstanding))
				return nil, ctx.Err()
			}
		}
		return nil, ctx.Err()
	}
	var lastErr error
	for {
		select {
		case r := <-results:
			outstanding--
			if r.err == nil {
				return win(r), nil
			}
			g.b.failures.Inc()
			lastErr = r.err
			if ctx.Err() != nil {
				return abort()
			}
			if launched < n {
				if hedgeC != nil {
					// Restart the hedge clock: the replacement attempt gets
					// the full delay before a token is spent hedging it.
					// (Go 1.23 timer semantics: Reset discards any pending
					// fire, so the old deadline cannot leak through.)
					timer.Reset(delay)
				}
				fire(false) // plain sequential failover
				outstanding++
			} else if outstanding == 0 {
				return nil, lastErr
			}
		case <-hedgeC:
			hedgeC = nil
			if launched < n && g.budget.take() {
				g.b.hedges.Inc()
				fire(true)
				outstanding++
			}
		case <-ctx.Done():
			return abort()
		}
	}
}

func (b *Broker) handleSearch(payload []byte) ([]byte, error) {
	b.queries.Inc()
	// Validate the request before fanning out garbage.
	req, err := core.DecodeSearchRequest(payload)
	if err != nil {
		return nil, err
	}
	// Result cache: the request digest covers feature, predicates, scopes,
	// and k. Snapshot the watermarks before the fan-out so a page computed
	// while updates land is pinned to the conservative (older) reading.
	var ckey string
	var cmarks []int64
	if b.rcache != nil {
		ckey = cacheKey(payload)
		if resp, ok := b.rcache.get(ckey); ok {
			return resp, nil
		}
		cmarks = b.rcache.snapshotMarks()
	}
	// One deadline over the whole fan-out: replica failover and hedging
	// keep going only while the query as a whole still has budget, and an
	// expired query returns whatever partitions already answered.
	ctx := context.Background()
	if b.queryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, b.queryTimeout)
		defer cancel()
	}

	type partial struct {
		resp *core.SearchResponse
		err  error
	}
	results := make([]partial, len(b.groups))
	var wg sync.WaitGroup
	for i, g := range b.groups {
		wg.Add(1)
		go func(i int, g *partitionGroup) {
			defer wg.Done()
			resp, err := g.call(ctx, payload)
			results[i] = partial{resp: resp, err: err}
		}(i, g)
	}
	wg.Wait()

	merged := &core.SearchResponse{}
	pages := make([][]core.Hit, 0, len(results))
	var lastErr error
	for _, r := range results {
		if r.err != nil {
			lastErr = r.err
			continue
		}
		pages = append(pages, r.resp.Hits)
		merged.Scanned += r.resp.Scanned
		merged.Probed += r.resp.Probed
	}
	okCount := len(pages)
	if okCount == 0 {
		return nil, fmt.Errorf("broker: all partitions failed: %w", lastErr)
	}
	if okCount < len(b.groups) {
		b.partials.Inc()
	}
	// Keep the k best across partitions; the blender re-ranks globally.
	// Every partition's page arrives ordered by (dist, image ref) — the
	// shard's final selector order with the partition stamped in — so a
	// k-way merge of the page heads yields the order a sort of the
	// concatenation would, without touching hits past the k-th.
	k := req.TopK
	if k <= 0 {
		k = math.MaxInt // unbounded: every hit, merged
	}
	merged.Hits = topk.Merge(k, hitBefore, pages...)
	out := core.EncodeSearchResponse(merged)
	// Cache only complete pages: a partial would pin a missing partition's
	// absence into every repeat of a hot query until invalidation.
	if b.rcache != nil && okCount == len(b.groups) {
		b.rcache.put(ckey, out, cmarks)
	}
	return out, nil
}

// hitBefore is the broker's page order: ascending distance, ties by packed
// image reference.
func hitBefore(a, b *core.Hit) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.Image.Pack() < b.Image.Pack()
}

// GroupStats is one partition group's live replica-attempt latency
// estimate — the distribution the hedge trigger acts on.
type GroupStats struct {
	Partition int    `json:"partition"` // index within this broker's assignment
	Replicas  int    `json:"replicas"`
	Samples   uint64 `json:"samples"`
	P50Micros int64  `json:"p50_micros"`
	P95Micros int64  `json:"p95_micros"`
	P99Micros int64  `json:"p99_micros"`
}

// Stats is the broker's stats payload.
type Stats struct {
	Partitions int   `json:"partitions"`
	Queries    int64 `json:"queries"`
	// Failures counts replica attempts that failed — transport errors,
	// per-attempt timeouts and undecodable responses alike (each triggers
	// failover to the next replica). Partials counts queries answered with
	// at least one partition missing (e.g. the QueryTimeout expired
	// mid-failover).
	Failures int64 `json:"failures"`
	Partials int64 `json:"partials"`
	// Hedges counts hedged attempts fired; HedgeWins those whose response
	// won the query; HedgeCancels in-flight attempts abandoned because
	// another attempt won first. Win rate = HedgeWins / Hedges.
	Hedges       int64 `json:"hedges"`
	HedgeWins    int64 `json:"hedge_wins"`
	HedgeCancels int64 `json:"hedge_cancels"`
	// Result-cache counters (all zero when the cache is disabled). Hits
	// are pages served without any fan-out; StaleEvictions are entries
	// dropped because a covered shard's applied offset advanced past the
	// entry's watermark snapshot plus ResultCacheMaxLag. PollErrors counts
	// failed watermark reads (replica down or undecodable stats).
	ResultCacheHits           int64 `json:"result_cache_hits"`
	ResultCacheMisses         int64 `json:"result_cache_misses"`
	ResultCacheStaleEvictions int64 `json:"result_cache_stale_evictions"`
	ResultCacheEntries        int64 `json:"result_cache_entries"`
	ResultCacheBytes          int64 `json:"result_cache_bytes"`
	ResultCachePollErrors     int64 `json:"result_cache_poll_errors"`
	// Groups carries each partition group's live attempt-latency
	// percentiles from its sliding sample window.
	Groups []GroupStats `json:"groups"`
}

func (b *Broker) handleStats([]byte) ([]byte, error) {
	st := Stats{
		Partitions:   len(b.groups),
		Queries:      b.queries.Value(),
		Failures:     b.failures.Value(),
		Partials:     b.partials.Value(),
		Hedges:       b.hedges.Value(),
		HedgeWins:    b.hedgeWins.Value(),
		HedgeCancels: b.hedgeCancels.Value(),
	}
	if b.rcache != nil {
		cs := b.rcache.entries.Stats()
		st.ResultCacheHits = b.rcache.hits.Value()
		st.ResultCacheMisses = b.rcache.misses.Value()
		st.ResultCacheStaleEvictions = b.rcache.staleEvictions.Value()
		st.ResultCacheEntries = cs.Entries
		st.ResultCacheBytes = cs.Bytes
		st.ResultCachePollErrors = b.rcache.pollErrors.Value()
	}
	for i, g := range b.groups {
		qs := g.lat.Quantiles(50, 95, 99)
		st.Groups = append(st.Groups, GroupStats{
			Partition: i,
			Replicas:  len(g.pools),
			Samples:   g.lat.Count(),
			P50Micros: qs[0].Microseconds(),
			P95Micros: qs[1].Microseconds(),
			P99Micros: qs[2].Microseconds(),
		})
	}
	return json.Marshal(st)
}
