// Package searcher implements the leaf tier of Fig. 10: each searcher owns
// one index partition, serves similarity scans over it, and tails its
// message-queue partition to apply real-time index updates (§2.3, Fig. 4)
// concurrently with searches.
//
// # Snapshot distribution
//
// The periodic full indexing cycle (§2.2) ends by pushing each partition's
// fresh index to its searchers over search.LoadIndexStream
// (MethodLoadIndexBegin/Chunk/Commit/Abort), a chunked session (rpc stream
// codec); a snapshot smaller than one chunk is a one-chunk session. The
// receiver feeds verified chunks straight into index.LoadSnapshot through
// a pipe, so a shard is materialised incrementally with O(chunk) transfer
// buffering; the serving shard is hot-swapped only on a clean,
// totals-verified commit. An abort — explicit, or implicit when the
// session idles past Config.LoadIdleTimeout — discards the partial shard
// and leaves the serving index untouched. PushSnapshot is the sender: it
// serialises the shard straight into the chunked stream.
package searcher

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"jdvs/internal/core"
	"jdvs/internal/index"
	"jdvs/internal/indexer"
	"jdvs/internal/metrics"
	"jdvs/internal/mq"
	"jdvs/internal/msg"
	"jdvs/internal/rpc"
	"jdvs/internal/search"
)

// AppliedFunc observes every applied real-time update: the decoded event,
// the operation kind ("addition", "deletion", "update"), whether features
// or records were reused, and the end-to-end latency from enqueue to
// applied. Harnesses use it to build Table 1 and Fig. 11.
type AppliedFunc func(u *msg.ProductUpdate, kind string, reused bool, latency time.Duration)

// Config assembles a searcher node.
type Config struct {
	// Partition is this searcher's partition number.
	Partition core.PartitionID
	// Shard is the partition's index (already trained/loaded).
	Shard *index.Shard
	// Resolver resolves image URLs to features for real-time insertions.
	// Required when Queue is set.
	Resolver *indexer.Resolver
	// Queue, when non-nil, enables the real-time indexing loop consuming
	// the partition's updates.
	Queue *mq.Queue
	// StartOffset is where the real-time consumer begins (normally the
	// offset the last full index covered).
	StartOffset int64
	// Addr is the listen address (":0" for an ephemeral port).
	Addr string
	// OnApplied, if set, observes applied updates.
	OnApplied AppliedFunc
	// LoadIdleTimeout reaps an inbound snapshot-streaming session whose
	// sender stalls between chunks (default rpc.DefaultStreamIdleTimeout).
	// A reaped session never disturbs the serving shard.
	LoadIdleTimeout time.Duration
	// SearchDelay and SearchDelayFraction inject artificial latency into
	// this replica's search handler — the fault injector behind broker
	// hedging demos and benchmarks (jdvs-bench -experiment hedge). When
	// both are set, roughly SearchDelayFraction of searches (deterministic,
	// counter-based: every round(1/fraction)-th request) sleep SearchDelay
	// before answering. Zero disables.
	SearchDelay         time.Duration
	SearchDelayFraction float64
}

// Searcher is a running searcher node.
type Searcher struct {
	partition core.PartitionID
	shard     atomic.Pointer[index.Shard]
	res       *indexer.Resolver
	srv       *rpc.Server
	queue     *mq.Queue
	startOff  int64
	onApplied AppliedFunc

	loads *rpc.StreamServer

	// Fault injection: every delayEvery-th search sleeps delay.
	delay      time.Duration
	delayEvery int64
	delaySeq   atomic.Int64

	rtLatency     metrics.Histogram
	searchLatency metrics.Histogram // handleSearch, decode to encoded page
	applied       metrics.Counter
	searches      metrics.Counter
	dropped       metrics.Counter // undecodable (poison) queue messages
	applyErrors   metrics.Counter // decoded updates indexer.Apply rejected
	snapshotLoads metrics.Counter // snapshots installed by push
	offsetSkips   metrics.Counter // queue messages skipped as snapshot-covered

	// skipTo is the queue offset covered by the serving shard: the
	// real-time consumer drops messages below it instead of re-applying
	// them idempotently. resyncTo is a one-shot reposition request raised
	// by SwapShard (-1 when none): forward of the consumer it skips the
	// snapshot-covered span, behind the consumer it rewinds so the gap the
	// consumer applied to the pre-swap shard is replayed onto the fresh
	// one (updates are idempotent) instead of being lost.
	skipTo   atomic.Int64
	resyncTo atomic.Int64

	// appliedOff is the partition's applied-offset watermark: every queue
	// offset below it is reflected in the serving shard, whether applied by
	// the real-time loop or covered by an installed snapshot. Monotonic
	// (CAS-max): a consumer rewind replays already-reflected updates, so
	// the watermark never moves back. Brokers read it from Stats to bound
	// result-cache staleness.
	appliedOff atomic.Int64

	addr   string
	done   chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool
}

// New builds and starts a searcher (RPC serving plus, if configured, the
// real-time indexing loop).
func New(cfg Config) (*Searcher, error) {
	if cfg.Shard == nil {
		return nil, errors.New("searcher: Shard is required")
	}
	if cfg.Queue != nil && cfg.Resolver == nil {
		return nil, errors.New("searcher: Resolver is required with Queue")
	}
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	s := &Searcher{
		partition: cfg.Partition,
		res:       cfg.Resolver,
		queue:     cfg.Queue,
		startOff:  cfg.StartOffset,
		onApplied: cfg.OnApplied,
		done:      make(chan struct{}),
	}
	s.resyncTo.Store(-1)
	s.appliedOff.Store(cfg.StartOffset)
	if cfg.SearchDelay > 0 && cfg.SearchDelayFraction > 0 {
		s.delay = cfg.SearchDelay
		frac := cfg.SearchDelayFraction
		if frac > 1 {
			frac = 1
		}
		s.delayEvery = int64(math.Round(1 / frac))
		if s.delayEvery < 1 {
			s.delayEvery = 1
		}
	}
	s.shard.Store(cfg.Shard)

	s.srv = rpc.NewServer()
	s.srv.Handle(search.MethodSearch, s.handleSearch)
	s.srv.Handle(search.MethodStats, s.handleStats)
	s.srv.Handle(search.MethodPing, func([]byte) ([]byte, error) { return nil, nil })
	s.loads = rpc.NewStreamServer(s.openSnapshotSink, cfg.LoadIdleTimeout, 0)
	s.loads.Register(s.srv, search.LoadIndexStream)
	addr, err := s.srv.Listen(cfg.Addr)
	if err != nil {
		return nil, err
	}
	s.addr = addr

	if s.queue != nil {
		consumer, err := s.queue.NewConsumer(indexer.UpdatesTopic, int(s.partition), s.startOff)
		if err != nil {
			s.srv.Close()
			return nil, fmt.Errorf("searcher: attach to queue: %w", err)
		}
		s.wg.Add(1)
		go s.realtimeLoop(consumer)
	}
	return s, nil
}

// Addr returns the searcher's RPC address.
func (s *Searcher) Addr() string { return s.addr }

// Partition returns the partition this searcher owns.
func (s *Searcher) Partition() core.PartitionID { return s.partition }

// Shard returns the currently served shard.
func (s *Searcher) Shard() *index.Shard { return s.shard.Load() }

// SwapShard atomically replaces the served index — the zero-downtime swap
// at the end of a full indexing cycle. In-flight searches finish on the
// old shard; new searches see the new one. If the incoming shard records
// the queue offset its build covered, the real-time consumer
// resynchronises to it: a consumer behind the offset skips straight past
// the snapshot-covered span, and a consumer ahead of it rewinds to replay
// the gap it had applied to the outgoing shard — otherwise those updates
// would be missing from the fresh index until the next full build.
func (s *Searcher) SwapShard(next *index.Shard) {
	s.shard.Store(next)
	if covered := next.CoveredOffset(); covered > 0 {
		s.skipTo.Store(covered)
		s.resyncTo.Store(covered)
		s.advanceApplied(covered)
	}
}

// advanceApplied raises the applied-offset watermark to off (monotonic).
func (s *Searcher) advanceApplied(off int64) {
	for {
		cur := s.appliedOff.Load()
		if off <= cur || s.appliedOff.CompareAndSwap(cur, off) {
			return
		}
	}
}

// Close stops serving and waits for the real-time loop to drain.
func (s *Searcher) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	close(s.done)
	s.wg.Wait()
	s.loads.Close()
	s.srv.Close()
}

func (s *Searcher) handleSearch(payload []byte) ([]byte, error) {
	start := time.Now()
	req, err := core.DecodeSearchRequest(payload)
	if err != nil {
		return nil, err
	}
	if s.delayEvery > 0 && s.delaySeq.Add(1)%s.delayEvery == 0 {
		time.Sleep(s.delay) // injected fault: this replica is slow for this request
	}
	resp, err := s.shard.Load().Search(req)
	if err != nil {
		return nil, err
	}
	// Stamp our partition into every hit's global reference.
	for i := range resp.Hits {
		resp.Hits[i].Image.Partition = s.partition
	}
	s.searches.Inc()
	out := core.EncodeSearchResponse(resp)
	s.searchLatency.Record(time.Since(start))
	return out, nil
}

// Stats is the searcher's stats payload (JSON over MethodStats).
type Stats struct {
	Partition core.PartitionID `json:"partition"`
	Index     index.Stats      `json:"index"`
	Searches  int64            `json:"searches"`
	Applied   int64            `json:"applied"`
	// Dropped counts queue messages discarded because they would not
	// decode (poison messages).
	Dropped int64 `json:"dropped"`
	// ApplyErrors counts decoded updates the indexer rejected (e.g. an
	// addition whose image could not be resolved).
	ApplyErrors int64 `json:"apply_errors"`
	// SnapshotLoads counts pushed snapshots installed; LoadSessions is the
	// number of chunked transfers currently in flight.
	SnapshotLoads int64 `json:"snapshot_loads"`
	LoadSessions  int   `json:"load_sessions"`
	// OffsetSkips counts queue messages the real-time consumer skipped
	// because an installed snapshot already covered their offsets.
	OffsetSkips int64 `json:"offset_skips"`
	// AppliedOffset is the partition's applied-offset watermark: every
	// queue offset below it is reflected in the serving shard. Brokers use
	// it to invalidate result-cache entries whose covered shards moved on.
	AppliedOffset int64 `json:"applied_offset"`
	RTAvgMicros   int64 `json:"rt_avg_micros"`
	RTP99Micros   int64 `json:"rt_p99_micros"`
	// SearchAvgMicros and SearchP99Micros summarise the latency of every
	// search answered — request decode through encoded page, injected
	// delay included — next to the real-time update latency above.
	SearchAvgMicros int64 `json:"search_avg_micros"`
	SearchP99Micros int64 `json:"search_p99_micros"`
	QueueConsumed   bool  `json:"queue_consumed"`
}

func (s *Searcher) handleStats([]byte) ([]byte, error) {
	st := Stats{
		Partition:       s.partition,
		Index:           s.shard.Load().Stats(),
		Searches:        s.searches.Value(),
		Applied:         s.applied.Value(),
		Dropped:         s.dropped.Value(),
		ApplyErrors:     s.applyErrors.Value(),
		SnapshotLoads:   s.snapshotLoads.Value(),
		LoadSessions:    s.loads.Sessions(),
		OffsetSkips:     s.offsetSkips.Value(),
		AppliedOffset:   s.appliedOff.Load(),
		RTAvgMicros:     s.rtLatency.Mean().Microseconds(),
		RTP99Micros:     s.rtLatency.Percentile(99).Microseconds(),
		SearchAvgMicros: s.searchLatency.Mean().Microseconds(),
		SearchP99Micros: s.searchLatency.Percentile(99).Microseconds(),
		QueueConsumed:   s.queue != nil,
	}
	return json.Marshal(st)
}

// snapshotSink materialises one streamed snapshot. Chunk bytes are piped
// into index.LoadSnapshot running in its own goroutine, so the shard is
// decoded incrementally while chunks are still arriving and the receiver
// never buffers more than the in-flight chunk. The fresh shard replaces
// the serving one only on a verified Commit; Abort discards it.
type snapshotSink struct {
	s     *Searcher
	fresh *index.Shard
	pw    *io.PipeWriter
	done  chan error
}

// errSnapshotAborted poisons the pipe when a transfer is torn down.
var errSnapshotAborted = errors.New("searcher: snapshot transfer aborted")

// openSnapshotSink starts a streamed load session (rpc.StreamServer open
// hook). The fresh shard takes the serving shard's Config, so a pushed
// index keeps the node's serving settings, and the pushed snapshot's
// shape.
func (s *Searcher) openSnapshotSink() (rpc.StreamSink, error) {
	fresh, err := index.New(s.shard.Load().Config())
	if err != nil {
		return nil, err
	}
	pr, pw := io.Pipe()
	k := &snapshotSink{s: s, fresh: fresh, pw: pw, done: make(chan error, 1)}
	go func() {
		err := fresh.LoadSnapshot(pr)
		// Stop accepting pipe writes once the decoder is done (success or
		// failure), so a chunk write after a decode error fails fast instead
		// of blocking — and carries the decoder's own error back to the
		// sender when there is one.
		cause := err
		if cause == nil {
			cause = errSnapshotAborted
		}
		pr.CloseWithError(cause)
		k.done <- err
	}()
	return k, nil
}

// Write implements rpc.StreamSink: feed one verified chunk to the decoder.
func (k *snapshotSink) Write(p []byte) (int, error) { return k.pw.Write(p) }

// Commit implements rpc.StreamSink: the stream is complete and
// totals-verified — finish decoding and hot-swap the shard in. A pushed
// generation may change the list count but not Dim: a new Dim needs a new
// extractor in the blenders too, so such a shard is refused.
func (k *snapshotSink) Commit() error {
	_ = k.pw.Close()
	if err := <-k.done; err != nil {
		return fmt.Errorf("searcher: load pushed index: %w", err)
	}
	if cur := k.s.shard.Load().Codebook(); cur != nil && cur.Dim != k.fresh.Codebook().Dim {
		return fmt.Errorf("searcher: pushed index has dim %d, serving dim %d", k.fresh.Codebook().Dim, cur.Dim)
	}
	k.s.SwapShard(k.fresh)
	k.s.snapshotLoads.Inc()
	return nil
}

// Abort implements rpc.StreamSink: discard the partial shard; the serving
// shard is untouched.
func (k *snapshotSink) Abort() {
	_ = k.pw.CloseWithError(errSnapshotAborted)
	<-k.done // wait the decoder goroutine out
}

// PushSnapshot streams shard's snapshot to the searcher at addr in
// checksummed chunks of at most chunkSize bytes (0 takes
// rpc.DefaultChunkSize; capped at rpc.MaxChunkData) and installs it — the
// distribution step of the periodic full indexing cycle. The snapshot is
// serialised straight into the chunked sender, so peak sender memory is
// O(chunk size) regardless of shard size. On any mid-stream failure the
// session is aborted and the receiver keeps serving its current shard.
func PushSnapshot(ctx context.Context, addr string, shard *index.Shard, chunkSize int) error {
	c, err := rpc.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	sender := rpc.NewStreamSender(ctx, c, search.LoadIndexStream, chunkSize)
	if err := shard.WriteSnapshot(sender); err != nil {
		sender.Abort()
		return fmt.Errorf("searcher: push snapshot: %w", err)
	}
	if err := sender.Finish(); err != nil {
		// A failed commit already tore the session down server-side; Abort
		// covers failures before the commit was processed.
		sender.Abort()
		return fmt.Errorf("searcher: push snapshot: %w", err)
	}
	return nil
}

// realtimeLoop is the Fig. 4 pipeline: receive each update message and
// process it instantly against the live index. A pushed snapshot (see
// SwapShard) resynchronises the consumer to the offset the snapshot
// covers: forward — the covered span is skipped, not re-applied — or
// backward, replaying onto the fresh shard the updates the consumer had
// applied to the old one while the snapshot was being built and pushed.
func (s *Searcher) realtimeLoop(consumer *mq.Consumer) {
	defer s.wg.Done()
	for {
		select {
		case <-s.done:
			return
		default:
		}
		msgs, err := consumer.Poll(256, 50*time.Millisecond)
		//jdvs:nostat Poll errors only when the queue is closed; loop exit, not a dropped update
		if err != nil {
			return // queue closed
		}
		// A resync request raised since the last batch repositions the
		// consumer relative to this batch's start; the per-message skip
		// below handles a target that falls inside the batch.
		if r := s.resyncTo.Swap(-1); r >= 0 {
			base := consumer.Offset() - int64(len(msgs))
			if r < base {
				// The consumer outran the snapshot build: offsets [r, base)
				// reached only the pre-swap shard. Rewind and re-read;
				// re-application is idempotent.
				consumer.SeekTo(r)
				continue
			}
			if r > consumer.Offset() {
				s.offsetSkips.Add(r - consumer.Offset())
				consumer.SeekTo(r)
			}
		}
		// Re-read the watermark: a snapshot may have been installed while
		// Poll was blocked, covering part or all of this batch.
		skip := s.skipTo.Load()
		for _, m := range msgs {
			if m.Offset < skip {
				s.offsetSkips.Inc()
				continue
			}
			s.applyOne(m)
		}
		// Everything up to the consumer's position is now reflected in the
		// serving shard (applied, skipped-as-covered, or dropped).
		s.advanceApplied(consumer.Offset())
	}
}

func (s *Searcher) applyOne(m mq.Message) {
	u, err := msg.Decode(m.Payload)
	if err != nil {
		// Poison message: skip it, but leave a trace — silent drops made
		// queue corruption invisible (Stats.Dropped).
		s.dropped.Inc()
		return
	}
	kind, reused, err := indexer.Apply(s.shard.Load(), s.res, u)
	if err != nil {
		s.applyErrors.Inc()
		return
	}
	lat := time.Since(m.Enqueued)
	s.rtLatency.Record(lat)
	s.applied.Inc()
	if s.onApplied != nil {
		s.onApplied(u, kind, reused, lat)
	}
}

// Applied returns the number of updates applied. Only the cluster tests
// read it; the stats RPC reports the same value as Stats.Applied.
func (s *Searcher) Applied() int64 { return s.applied.Value() }

// Dropped returns the number of undecodable queue messages discarded.
func (s *Searcher) Dropped() int64 { return s.dropped.Value() }

// ApplyErrors returns the number of decoded updates the indexer rejected.
func (s *Searcher) ApplyErrors() int64 { return s.applyErrors.Value() }

// SnapshotLoads returns the number of pushed snapshots installed. Only
// the cluster tests read it; the stats RPC reports the same value.
func (s *Searcher) SnapshotLoads() int64 { return s.snapshotLoads.Value() }

// OffsetSkips returns the number of queue messages skipped because an
// installed snapshot already covered them. Only the cluster tests read
// it; the stats RPC reports the same value.
func (s *Searcher) OffsetSkips() int64 { return s.offsetSkips.Value() }

// LoadSessions returns the number of chunked snapshot transfers in
// flight. Only the cluster tests read it; the stats RPC reports the same
// value.
func (s *Searcher) LoadSessions() int { return s.loads.Sessions() }

// AppliedOffset returns the partition's applied-offset watermark.
func (s *Searcher) AppliedOffset() int64 { return s.appliedOff.Load() }

// Ping checks liveness over the network (used by tests).
func Ping(ctx context.Context, addr string) error {
	c, err := rpc.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	_, err = c.Call(ctx, search.MethodPing, nil)
	return err
}
