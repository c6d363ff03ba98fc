package searcher

import (
	"bytes"
	"context"
	"testing"
	"time"

	"jdvs/internal/core"
	"jdvs/internal/index"
	"jdvs/internal/indexer"
	"jdvs/internal/mq"
	"jdvs/internal/msg"
)

// waitApplied polls until the searcher has applied at least n updates.
func waitApplied(t *testing.T, s *Searcher, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.Applied() < n {
		if time.Now().After(deadline) {
			t.Fatalf("applied %d, want %d", s.Applied(), n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// salesOf returns the sales value the shard serves for url, read from the
// newest generation carrying that URL (the one its URL table points at).
func salesOf(shard *index.Shard, url string) (uint32, bool) {
	for id := shard.Stats().Images - 1; id >= 0; id-- {
		if a, ok := shard.Attrs(core.ImageID(id)); ok && a.URL == url {
			return a.Sales, true
		}
	}
	return 0, false
}

// TestPushSnapshotSkipsCoveredOffsets: a pushed snapshot that embeds the
// queue offset it covers must fast-forward the receiving searcher's
// real-time consumer past the replayed messages instead of re-applying
// them one by one.
func TestPushSnapshotSkipsCoveredOffsets(t *testing.T) {
	f := newFixture(t, 10)
	s, err := New(Config{Shard: f.shard, Resolver: f.res, Queue: f.queue})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	p := &f.cat.Products[0]
	url := p.ImageURLs[0]
	event := func(sales uint32) *msg.ProductUpdate {
		return &msg.ProductUpdate{
			Type:       msg.TypeUpdateAttrs,
			ProductID:  p.ID,
			Category:   p.Category,
			Sales:      sales,
			Praise:     p.Praise,
			PriceCents: p.PriceCents,
			ImageURLs:  []string{url},
		}
	}

	// Phase 1: live events are applied normally (offsets 0..4).
	for i := 0; i < 5; i++ {
		if _, err := indexer.RouteUpdate(f.queue, event(uint32(100+i))); err != nil {
			t.Fatal(err)
		}
	}
	waitApplied(t, s, 5)

	// Phase 2: push a snapshot claiming to cover offsets up to 9. The four
	// events produced next (offsets 5..8) are "already folded into the
	// snapshot" and must be skipped; the one after (offset 9) is live.
	next, err := index.New(f.shard.Config())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.shard.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if err := next.LoadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	next.SetCoveredOffset(9)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := PushSnapshot(ctx, s.Addr(), next, 0); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 4; i++ {
		if _, err := indexer.RouteUpdate(f.queue, event(uint32(200+i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := indexer.RouteUpdate(f.queue, event(999)); err != nil {
		t.Fatal(err)
	}

	waitApplied(t, s, 6)
	if got := s.OffsetSkips(); got != 4 {
		t.Fatalf("OffsetSkips = %d, want 4", got)
	}
	if got := s.Applied(); got != 6 {
		t.Fatalf("Applied = %d, want 6 (covered events re-applied?)", got)
	}
	// The live event landed: the shard serves its attribute update.
	if sales, ok := salesOf(s.Shard(), url); !ok || sales != 999 {
		t.Fatalf("post-covered live event not applied to the pushed shard: sales %d, indexed=%v", sales, ok)
	}
}

// TestSwapShardWatermarkFollowsServingShard: the skip watermark tracks
// the covered offset of whichever shard is serving — including moving
// backwards when an older build is installed, since messages above its
// coverage must be (re)applied to it, not dropped.
func TestSwapShardWatermarkFollowsServingShard(t *testing.T) {
	f := newFixture(t, 5)
	s, err := New(Config{Shard: f.shard})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	clone := func(off int64) *index.Shard {
		next, err := index.New(f.shard.Config())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := f.shard.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		if err := next.LoadSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		next.SetCoveredOffset(off)
		return next
	}
	for _, off := range []int64{100, 40, 250} {
		s.SwapShard(clone(off))
		if got := s.skipTo.Load(); got != off {
			t.Fatalf("watermark %d after installing covered=%d", got, off)
		}
		if got := s.resyncTo.Load(); got != off {
			t.Fatalf("resync request %d after installing covered=%d", got, off)
		}
	}
}

// TestPushSnapshotRewindsOutrunConsumer: when the real-time consumer has
// run ahead of a snapshot's covered offset — it applied updates to the
// old shard while the new one was being built and pushed — installing the
// snapshot must rewind the consumer so that gap is replayed onto the
// fresh shard rather than silently lost until the next full build.
func TestPushSnapshotRewindsOutrunConsumer(t *testing.T) {
	f := newFixture(t, 10)
	s, err := New(Config{Shard: f.shard, Resolver: f.res, Queue: f.queue})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	p := &f.cat.Products[0]
	url := p.ImageURLs[0]
	event := func(sales uint32) *msg.ProductUpdate {
		return &msg.ProductUpdate{
			Type:       msg.TypeUpdateAttrs,
			ProductID:  p.ID,
			Category:   p.Category,
			Sales:      sales,
			Praise:     p.Praise,
			PriceCents: p.PriceCents,
			ImageURLs:  []string{url},
		}
	}
	// The consumer applies offsets 0..4 to the serving shard.
	for i := 0; i < 5; i++ {
		if _, err := indexer.RouteUpdate(f.queue, event(uint32(300+i))); err != nil {
			t.Fatal(err)
		}
	}
	waitApplied(t, s, 5)

	// A snapshot whose build only covered offsets 0..1 arrives: it is
	// missing the updates at offsets 2..4 that the live consumer already
	// applied. The swap must rewind and replay them.
	next, err := index.New(f.shard.Config())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.shard.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if err := next.LoadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// Regress the marker product's sales so the replay is observable.
	if err := next.UpdateAttrsURL(url, 1, p.Praise, p.PriceCents, p.Category); err != nil {
		t.Fatal(err)
	}
	next.SetCoveredOffset(2)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := PushSnapshot(ctx, s.Addr(), next, 0); err != nil {
		t.Fatal(err)
	}

	// Offsets 2..4 are replayed onto the fresh shard (idempotently), so
	// applied reaches 5 + 3 and the shard carries the final sales value.
	waitApplied(t, s, 8)
	if got := s.OffsetSkips(); got != 0 {
		t.Fatalf("OffsetSkips = %d during a rewind, want 0", got)
	}
	if sales, ok := salesOf(s.Shard(), url); !ok || sales != 304 {
		t.Fatalf("rewound replay did not restore the gap updates on the fresh shard: sales %d, indexed=%v", sales, ok)
	}
}

// startLoopWith hands a hand-built consumer to the searcher's real-time
// loop — the deterministic harness for batch-boundary cases: everything
// produced and every resync raised *before* this call lands on the
// loop's first Poll batch.
func startLoopWith(t *testing.T, s *Searcher, consumer *mq.Consumer) {
	t.Helper()
	s.wg.Add(1)
	go s.realtimeLoop(consumer)
}

// TestResyncAndWatermarkSameBatch: a resyncTo request and the raised
// skipTo watermark from the same SwapShard land on one Poll batch — the
// covered prefix must be skipped with OffsetSkips counting each skipped
// message exactly once (no double count from the seek-time bulk add plus
// the per-message skip), and the uncovered tail applied exactly once.
func TestResyncAndWatermarkSameBatch(t *testing.T) {
	f := newFixture(t, 10)
	s, err := New(Config{Shard: f.shard, Resolver: f.res})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	p := &f.cat.Products[0]
	url := p.ImageURLs[0]
	event := func(sales uint32) *msg.ProductUpdate {
		return &msg.ProductUpdate{
			Type:       msg.TypeUpdateAttrs,
			ProductID:  p.ID,
			Category:   p.Category,
			Sales:      sales,
			Praise:     p.Praise,
			PriceCents: p.PriceCents,
			ImageURLs:  []string{url},
		}
	}
	// Offsets 0..9 are already enqueued when the loop first polls, so they
	// arrive as one batch.
	for i := 0; i < 10; i++ {
		if _, err := indexer.RouteUpdate(f.queue, event(uint32(100+i))); err != nil {
			t.Fatal(err)
		}
	}
	// A snapshot covering offsets [0, 7) is installed before the batch is
	// processed: resyncTo = skipTo = 7 both land on the same batch.
	next, err := index.New(f.shard.Config())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.shard.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if err := next.LoadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	next.SetCoveredOffset(7)
	s.SwapShard(next)

	consumer, err := f.queue.NewConsumer(indexer.UpdatesTopic, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	startLoopWith(t, s, consumer)

	waitApplied(t, s, 3)
	if got := s.OffsetSkips(); got != 7 {
		t.Fatalf("OffsetSkips = %d, want 7 (each covered message counted exactly once)", got)
	}
	if got := s.Applied(); got != 3 {
		t.Fatalf("Applied = %d, want 3 (uncovered tail applied exactly once)", got)
	}
	// The tail landed in order: the last event's sales value serves.
	if sales, ok := salesOf(s.Shard(), url); !ok || sales != 109 {
		t.Fatalf("tail updates not applied to the swapped shard: sales %d, indexed=%v", sales, ok)
	}
}

// TestResyncBeyondBatchCountsOnce: the resync target lies past the end of
// the polled batch — the batch is fully skipped via the per-message
// watermark and the remaining covered span via the seek-time bulk add;
// together every covered offset counts exactly once, and messages
// arriving later in the covered span are never re-counted or re-applied.
func TestResyncBeyondBatchCountsOnce(t *testing.T) {
	f := newFixture(t, 10)
	s, err := New(Config{Shard: f.shard, Resolver: f.res})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	p := &f.cat.Products[0]
	url := p.ImageURLs[0]
	event := func(sales uint32) *msg.ProductUpdate {
		return &msg.ProductUpdate{
			Type:       msg.TypeUpdateAttrs,
			ProductID:  p.ID,
			Category:   p.Category,
			Sales:      sales,
			Praise:     p.Praise,
			PriceCents: p.PriceCents,
			ImageURLs:  []string{url},
		}
	}
	// Ten messages exist; the snapshot covers twelve: offsets 10 and 11
	// have not even been produced yet.
	for i := 0; i < 10; i++ {
		if _, err := indexer.RouteUpdate(f.queue, event(uint32(500+i))); err != nil {
			t.Fatal(err)
		}
	}
	next, err := index.New(f.shard.Config())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.shard.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if err := next.LoadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	next.SetCoveredOffset(12)
	s.SwapShard(next)

	consumer, err := f.queue.NewConsumer(indexer.UpdatesTopic, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	startLoopWith(t, s, consumer)

	// The whole batch plus the unproduced remainder of the covered span is
	// skipped: 10 messages + offsets [10, 12) = 12 skips.
	deadline := time.Now().Add(5 * time.Second)
	for s.OffsetSkips() < 12 {
		if time.Now().After(deadline) {
			t.Fatalf("OffsetSkips = %d, want 12", s.OffsetSkips())
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Offsets 10 and 11 arrive after the seek; they were skipped at seek
	// time and must not be applied or counted again. Offset 12 is live.
	for i := 0; i < 2; i++ {
		if _, err := indexer.RouteUpdate(f.queue, event(uint32(600+i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := indexer.RouteUpdate(f.queue, event(999)); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, s, 1)
	if got := s.OffsetSkips(); got != 12 {
		t.Fatalf("OffsetSkips = %d, want 12 (covered span double-counted?)", got)
	}
	if got := s.Applied(); got != 1 {
		t.Fatalf("Applied = %d, want 1 (covered messages re-applied?)", got)
	}
}
