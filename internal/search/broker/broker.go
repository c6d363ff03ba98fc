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
// loser is forgotten. Hedge volume is capped by a per-group token bucket
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
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"jdvs/internal/core"
	"jdvs/internal/metrics"
	"jdvs/internal/rpc"
	"jdvs/internal/search"
	"jdvs/internal/topk"
)

// connsPerSearcher sizes each searcher connection pool.
const connsPerSearcher = 2

// Config assembles a broker.
type Config struct {
	// PartitionReplicas maps each assigned partition to its replicas'
	// searcher addresses: PartitionReplicas[i] is the replica set of the
	// i-th partition this broker serves. Required, non-empty.
	PartitionReplicas [][]string
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
			pool, err := rpc.DialPool(addr, connsPerSearcher)
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

var (
	errAttemptTimeout = errors.New("broker: searcher attempt timed out")
	errQueryTimeout   = errors.New("broker: query deadline expired")
)

// fanout is one query's scatter-gather over every partition group, run as
// a single loop in the handler's goroutine. Each partition tries its
// replicas at most once each, starting from the group's round-robin
// cursor. Every attempt goes out with rpc.Client.Go and its reply comes
// back on the one done channel, tagged with the attempt's index; one timer
// covers every deadline the loop keeps — each attempt's SearcherTimeout,
// each partition's hedge delay, and the QueryTimeout — so the fan-out
// starts no goroutine and makes no context or timer per partition.
//
// Per partition: when the group's hedge trigger is armed, an attempt that
// outlives the hedge delay gets a concurrent attempt at the next replica
// (budget permitting, at most once per query) and the first success wins;
// a failed, timed-out or undecodable attempt fails over to the next
// replica and restarts the hedge clock, so a replacement gets the full
// delay before a token is spent hedging it. Attempts the loop stops
// waiting for — hedge losers, timeouts, those cut off by the query
// deadline — are forgotten on their connection, and a reply that still
// arrives for one is ignored.
//
// Latency: every attempt that ends is recorded in its group's window —
// successes, failures, timeouts (at SearcherTimeout) and attempts cut off
// by the query deadline — except hedge losers, whose elapsed time is
// censored at the winner's. Skipping them drains the slow mode from the
// window once hedging engages, so under a persistently slow replica the
// tracked quantile settles at the fast mode and HedgeMaxFraction's token
// bucket, not the quantile, becomes the governing cap: the budget is the
// load-safety invariant, the quantile only decides when hedging is worth
// starting.
type fanout struct {
	b       *Broker
	payload []byte
	// done receives every attempt's reply. Its capacity is the total
	// replica count — the most attempts one query can make — so a reply
	// never blocks the connection reader, including replies to attempts
	// this query has stopped waiting for (Client.Go's contract).
	done     chan rpc.Reply
	parts    []fanPart
	atts     []fanAttempt
	deadline time.Time // the QueryTimeout; zero when disabled
	open     int       // partitions not yet settled
}

// fanPart is one partition's progress through its replicas.
type fanPart struct {
	g        *partitionGroup
	start    uint64 // round-robin cursor, kept in uint64 (see fire)
	launched int    // replicas tried so far
	inflight int
	delay    time.Duration
	hedgeAt  time.Time // when to hedge the current attempt; zero: no hedge pending
	settled  bool
	resp     *core.SearchResponse
	err      error
}

// fanAttempt is one request to one replica.
type fanAttempt struct {
	part   int
	c      *rpc.Client
	id     uint64
	begin  time.Time
	hedged bool
	live   bool // the loop still waits for its reply
}

// newFanout fires every partition's primary attempt.
func (b *Broker) newFanout(payload []byte, now time.Time) *fanout {
	replicas := 0
	for _, g := range b.groups {
		replicas += len(g.pools)
	}
	f := &fanout{
		b:       b,
		payload: payload,
		done:    make(chan rpc.Reply, replicas),
		parts:   make([]fanPart, len(b.groups)),
		atts:    make([]fanAttempt, 0, replicas),
		open:    len(b.groups),
	}
	if b.queryTimeout > 0 {
		f.deadline = now.Add(b.queryTimeout)
	}
	for p, g := range b.groups {
		fp := &f.parts[p]
		fp.g = g
		fp.start = g.next.Add(1)
		g.budget.credit()
		if delay, armed := g.hedgeDelay(); armed {
			fp.delay = delay
			fp.hedgeAt = now.Add(delay)
		}
		f.fire(p, false, now)
	}
	return f
}

// run waits the fan-out out and returns each partition's outcome.
func (f *fanout) run() []fanPart {
	timer := time.NewTimer(time.Until(f.next()))
	defer timer.Stop()
	for f.open > 0 {
		select {
		case r := <-f.done:
			f.reply(r, time.Now())
		case now := <-timer.C:
			f.tick(now)
			if f.open > 0 {
				// Deadlines added since the timer was armed all lie past
				// the one it was armed for, so re-arming when it fires is
				// enough.
				timer.Reset(time.Until(f.next()))
			}
		}
	}
	return f.parts
}

// fire sends partition p's request to its next untried replica.
func (f *fanout) fire(p int, hedged bool, now time.Time) {
	fp := &f.parts[p]
	n := uint64(len(fp.g.pools))
	// Converting the cursor to int before the modulo would go negative once
	// it passes the int range (2³¹ queries on a 32-bit platform) and panic
	// the index expression.
	c := fp.g.pools[(fp.start+uint64(fp.launched))%n].Next()
	fp.launched++
	fp.inflight++
	tag := len(f.atts)
	f.atts = append(f.atts, fanAttempt{part: p, c: c, begin: now, hedged: hedged, live: true})
	f.atts[tag].id = c.Go(search.MethodSearch, f.payload, tag, f.done)
}

// end stops waiting for attempt a and records its latency unless it lost
// a hedge race.
func (f *fanout) end(a *fanAttempt, now time.Time, record bool) {
	a.live = false
	f.parts[a.part].inflight--
	if record {
		f.parts[a.part].g.lat.Record(now.Sub(a.begin))
	}
}

// reply handles one attempt's reply. A delivered-but-undecodable response
// is an attempt failure, failed over exactly like a timeout, so one
// corrupt replica cannot kill its whole partition.
func (f *fanout) reply(r rpc.Reply, now time.Time) {
	a := &f.atts[r.Tag]
	if !a.live {
		return // timed out, lost a hedge race, or cut off by the deadline
	}
	f.end(a, now, true)
	err := r.Err
	var resp *core.SearchResponse
	if err == nil {
		if resp, err = core.DecodeSearchResponse(r.Payload); err != nil {
			err = fmt.Errorf("broker: undecodable searcher response: %w", err)
		}
	}
	if err != nil {
		f.fail(a.part, err, now)
		return
	}
	if a.hedged {
		f.b.hedgeWins.Inc()
	}
	// Any other attempt still in flight for this partition lost.
	fp := &f.parts[a.part]
	if fp.inflight > 0 {
		f.b.hedgeCancels.Add(int64(fp.inflight))
		for i := range f.atts {
			if o := &f.atts[i]; o.live && o.part == a.part {
				o.c.Forget(o.id)
				f.end(o, now, false)
			}
		}
	}
	f.settle(a.part, resp, nil)
}

// fail books a failed attempt of partition p and fails over to the next
// replica; the partition settles with err once every replica has failed.
// Past the query deadline nothing new is fired: tick aborts the query.
func (f *fanout) fail(p int, err error, now time.Time) {
	f.b.failures.Inc()
	fp := &f.parts[p]
	switch {
	case f.expired(now):
	case fp.launched < len(fp.g.pools):
		if !fp.hedgeAt.IsZero() {
			fp.hedgeAt = now.Add(fp.delay)
		}
		f.fire(p, false, now)
	case fp.inflight == 0:
		f.settle(p, nil, err)
	}
}

func (f *fanout) settle(p int, resp *core.SearchResponse, err error) {
	fp := &f.parts[p]
	fp.settled, fp.resp, fp.err = true, resp, err
	f.open--
}

func (f *fanout) expired(now time.Time) bool {
	return !f.deadline.IsZero() && !now.Before(f.deadline)
}

// tick handles every deadline that has passed by now.
func (f *fanout) tick(now time.Time) {
	if f.expired(now) {
		f.abort(now)
		return
	}
	// Attempts appended by failovers below start now and cannot be due.
	for i, n := 0, len(f.atts); i < n; i++ {
		a := &f.atts[i]
		if a.live && !now.Before(a.begin.Add(f.parts[a.part].g.timeout)) {
			a.c.Forget(a.id)
			f.end(a, now, true)
			f.fail(a.part, errAttemptTimeout, now)
		}
	}
	for p := range f.parts {
		fp := &f.parts[p]
		if fp.settled || fp.hedgeAt.IsZero() || now.Before(fp.hedgeAt) {
			continue
		}
		fp.hedgeAt = time.Time{} // one hedge per partition per query
		if fp.launched < len(fp.g.pools) && fp.g.budget.take() {
			f.b.hedges.Inc()
			f.fire(p, true, now)
		}
	}
}

// abort ends the query at its deadline. A success that raced the deadline
// into done is preferred over giving up on its partition; every attempt
// still in flight counts as failed, and the partitions it leaves
// unanswered settle with errQueryTimeout.
func (f *fanout) abort(now time.Time) {
	for drained := false; !drained; {
		select {
		case r := <-f.done:
			f.reply(r, now)
		default:
			drained = true
		}
	}
	for i := range f.atts {
		if a := &f.atts[i]; a.live {
			a.c.Forget(a.id)
			f.end(a, now, true)
			f.b.failures.Inc()
		}
	}
	for p := range f.parts {
		if !f.parts[p].settled {
			f.settle(p, nil, errQueryTimeout)
		}
	}
}

// next returns the earliest deadline the loop is waiting on. While a
// partition is open some attempt is in flight, so there is one.
func (f *fanout) next() time.Time {
	next := f.deadline
	earlier := func(t time.Time) {
		if next.IsZero() || t.Before(next) {
			next = t
		}
	}
	for i := range f.atts {
		if a := &f.atts[i]; a.live {
			earlier(a.begin.Add(f.parts[a.part].g.timeout))
		}
	}
	for p := range f.parts {
		if fp := &f.parts[p]; !fp.settled && !fp.hedgeAt.IsZero() {
			earlier(fp.hedgeAt)
		}
	}
	return next
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
	results := b.newFanout(payload, time.Now()).run()

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
