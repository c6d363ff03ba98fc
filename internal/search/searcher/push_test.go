package searcher

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"jdvs/internal/core"
	"jdvs/internal/index"
	"jdvs/internal/pq"
	"jdvs/internal/rpc"
	"jdvs/internal/search"
)

// TestPushSnapshotSwapsIndex covers the distribution step of the weekly
// full indexing cycle: a freshly built shard is pushed to a running
// searcher over the network and served with zero downtime.
func TestPushSnapshotSwapsIndex(t *testing.T) {
	f := newFixture(t, 10)
	s, err := New(Config{Shard: f.shard})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Build a replacement index holding a single marker product.
	next, err := index.New(f.shard.Config())
	if err != nil {
		t.Fatal(err)
	}
	if err := next.SetCodebook(f.shard.Codebook()); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	mf := make([]float32, testDim)
	for i := range mf {
		mf[i] = float32(rng.NormFloat64())
	}
	if _, _, err := next.Insert(core.Attrs{ProductID: 424242, URL: "jfs://pushed.jpg"}, mf); err != nil {
		t.Fatal(err)
	}

	// Queries keep flowing while the new index is pushed.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	oldURL := f.cat.Products[0].ImageURLs[0]
	go func() {
		defer wg.Done()
		c, err := rpc.Dial(s.Addr())
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.Call(context.Background(), search.MethodSearch,
				core.EncodeSearchRequest(&core.SearchRequest{Feature: f.feats[oldURL], TopK: 1, NProbe: 8, Category: -1})); err != nil {
				t.Errorf("query during push: %v", err)
				return
			}
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := PushSnapshot(ctx, s.Addr(), next, 0); err != nil {
		t.Fatalf("PushSnapshot: %v", err)
	}
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()

	// The pushed index is live.
	resp := callSearch(t, s.Addr(), &core.SearchRequest{Feature: mf, TopK: 1, NProbe: 8, Category: -1})
	if len(resp.Hits) != 1 || resp.Hits[0].ProductID != 424242 {
		t.Fatalf("pushed index not serving: %+v", resp.Hits)
	}
	// The old corpus is gone (full index replaces, never merges).
	resp = callSearch(t, s.Addr(), &core.SearchRequest{Feature: f.feats[oldURL], TopK: 5, NProbe: 8, Category: -1})
	for _, h := range resp.Hits {
		if h.URL == oldURL {
			t.Fatalf("old index leaked through the swap: %+v", h)
		}
	}
}

// TestPushSnapshotMultiChunk is the regression test for the 64MB push
// ceiling: a snapshot far larger than the configured chunk size must
// round-trip through the chunked streaming path and serve searches
// identically to the source shard.
func TestPushSnapshotMultiChunk(t *testing.T) {
	f := newFixture(t, 40)
	s, err := New(Config{Shard: f.shard})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Rebuild the same corpus into a second shard — the "freshly built
	// index" being distributed.
	next, err := index.New(f.shard.Config())
	if err != nil {
		t.Fatal(err)
	}
	if err := next.SetCodebook(f.shard.Codebook()); err != nil {
		t.Fatal(err)
	}
	for i := range f.cat.Products {
		p := &f.cat.Products[i]
		for _, url := range p.ImageURLs {
			if _, _, err := next.Insert(p.Attrs(url), f.feats[url]); err != nil {
				t.Fatal(err)
			}
		}
	}

	// The transfer must genuinely span many chunks.
	const chunkSize = 1024
	var snap bytes.Buffer
	if err := next.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Len() < 3*chunkSize {
		t.Fatalf("snapshot is %d bytes; too small to exercise chunking at %d", snap.Len(), chunkSize)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := PushSnapshot(ctx, s.Addr(), next, chunkSize); err != nil {
		t.Fatalf("chunked PushSnapshot: %v", err)
	}
	if got := s.SnapshotLoads(); got != 1 {
		t.Fatalf("SnapshotLoads = %d, want 1", got)
	}
	if got := s.LoadSessions(); got != 0 {
		t.Fatalf("LoadSessions = %d after commit, want 0", got)
	}

	// The swapped-in shard answers exactly like the source shard: same
	// hits, same order, same distances, for corpus and random queries.
	rng := rand.New(rand.NewSource(17))
	queries := make([][]float32, 0, 8)
	for i := 0; i < 4; i++ {
		p := &f.cat.Products[i*7%len(f.cat.Products)]
		queries = append(queries, f.feats[p.ImageURLs[0]])
	}
	for i := 0; i < 4; i++ {
		q := make([]float32, testDim)
		for j := range q {
			q[j] = float32(rng.NormFloat64())
		}
		queries = append(queries, q)
	}
	for qi, q := range queries {
		req := &core.SearchRequest{Feature: q, TopK: 10, NProbe: 8, Category: -1}
		want, err := next.Search(req)
		if err != nil {
			t.Fatal(err)
		}
		got := callSearch(t, s.Addr(), req)
		if len(got.Hits) != len(want.Hits) {
			t.Fatalf("query %d: %d hits via push, %d from source", qi, len(got.Hits), len(want.Hits))
		}
		for i := range want.Hits {
			w, g := want.Hits[i], got.Hits[i]
			if w.ProductID != g.ProductID || w.URL != g.URL || w.Dist != g.Dist {
				t.Fatalf("query %d hit %d diverged: pushed %+v, source %+v", qi, i, g, w)
			}
		}
	}
}

// TestPushAbortLeavesServingShard aborts a transfer mid-stream and checks
// the searcher keeps serving its old shard with no session left behind.
func TestPushAbortLeavesServingShard(t *testing.T) {
	f := newFixture(t, 10)
	s, err := New(Config{Shard: f.shard})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var snap bytes.Buffer
	if err := f.shard.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}

	c, err := rpc.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	resp, err := c.Call(ctx, search.MethodLoadIndexBegin, nil)
	if err != nil {
		t.Fatal(err)
	}
	id, err := rpc.DecodeStreamSession(resp)
	if err != nil {
		t.Fatal(err)
	}
	// One genuine chunk of a real snapshot, then abandon the transfer.
	if _, err := c.Call(ctx, search.MethodLoadIndexChunk,
		rpc.EncodeStreamChunk(id, 0, snap.Bytes()[:1024])); err != nil {
		t.Fatal(err)
	}
	if s.LoadSessions() != 1 {
		t.Fatal("streaming session not tracked")
	}
	if _, err := c.Call(ctx, search.MethodLoadIndexAbort, rpc.EncodeStreamSession(id)); err != nil {
		t.Fatalf("abort: %v", err)
	}
	if got := s.LoadSessions(); got != 0 {
		t.Fatalf("LoadSessions = %d after abort, want 0", got)
	}
	if got := s.SnapshotLoads(); got != 0 {
		t.Fatalf("SnapshotLoads = %d after abort, want 0", got)
	}
	// The old shard still serves.
	url := f.cat.Products[0].ImageURLs[0]
	resp2 := callSearch(t, s.Addr(), &core.SearchRequest{Feature: f.feats[url], TopK: 1, NProbe: 8, Category: -1})
	if len(resp2.Hits) == 0 || resp2.Hits[0].URL != url {
		t.Fatalf("serving shard disturbed by aborted push: %+v", resp2.Hits)
	}
}

// TestPushDisconnectReapedByIdleTimeout: a pusher that dies mid-stream
// (connection drop, no abort) must be reaped by the idle timeout without
// disturbing the serving shard.
func TestPushDisconnectReapedByIdleTimeout(t *testing.T) {
	f := newFixture(t, 10)
	s, err := New(Config{Shard: f.shard, LoadIdleTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var snap bytes.Buffer
	if err := f.shard.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	c, err := rpc.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	resp, err := c.Call(ctx, search.MethodLoadIndexBegin, nil)
	if err != nil {
		t.Fatal(err)
	}
	id, err := rpc.DecodeStreamSession(resp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call(ctx, search.MethodLoadIndexChunk,
		rpc.EncodeStreamChunk(id, 0, snap.Bytes()[:512])); err != nil {
		t.Fatal(err)
	}
	c.Close() // pusher vanishes mid-stream

	deadline := time.Now().Add(5 * time.Second)
	for s.LoadSessions() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("abandoned session never reaped")
		}
		time.Sleep(5 * time.Millisecond)
	}
	url := f.cat.Products[0].ImageURLs[0]
	got := callSearch(t, s.Addr(), &core.SearchRequest{Feature: f.feats[url], TopK: 1, NProbe: 8, Category: -1})
	if len(got.Hits) == 0 || got.Hits[0].URL != url {
		t.Fatalf("serving shard disturbed by abandoned push: %+v", got.Hits)
	}
}

// TestPushChunkSequenceViolation: a chunk that is not the next in sequence
// kills the session and never touches the serving shard.
func TestPushChunkSequenceViolation(t *testing.T) {
	f := newFixture(t, 5)
	s, err := New(Config{Shard: f.shard})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c, err := rpc.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	resp, err := c.Call(ctx, search.MethodLoadIndexBegin, nil)
	if err != nil {
		t.Fatal(err)
	}
	id, err := rpc.DecodeStreamSession(resp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call(ctx, search.MethodLoadIndexChunk,
		rpc.EncodeStreamChunk(id, 1, []byte("out of order"))); err == nil {
		t.Fatal("out-of-order chunk accepted")
	}
	if got := s.LoadSessions(); got != 0 {
		t.Fatalf("LoadSessions = %d after sequence violation, want 0", got)
	}
	url := f.cat.Products[0].ImageURLs[0]
	got := callSearch(t, s.Addr(), &core.SearchRequest{Feature: f.feats[url], TopK: 1, NProbe: 8, Category: -1})
	if len(got.Hits) == 0 {
		t.Fatal("index lost after rejected stream")
	}
}

// TestPushSnapshotRejectsGarbage: a corrupt snapshot committed through the
// chunked session, and a call to the retired single-frame method, must
// both be rejected without disturbing the serving index.
func TestPushSnapshotRejectsGarbage(t *testing.T) {
	f := newFixture(t, 5)
	s, err := New(Config{Shard: f.shard})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c, err := rpc.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	sender := rpc.NewStreamSender(ctx, c, search.LoadIndexStream, 0)
	if _, err := sender.Write([]byte("garbage snapshot")); err != nil {
		t.Fatal(err)
	}
	if err := sender.Finish(); err == nil {
		t.Fatal("garbage snapshot committed")
	}
	if _, err := c.Call(ctx, 5, []byte("garbage snapshot")); err == nil || !strings.Contains(err.Error(), "unknown method 5") {
		t.Fatalf("retired single-frame method: err = %v, want unknown method", err)
	}
	if s.SnapshotLoads() != 0 || s.LoadSessions() != 0 || s.Shard() != f.shard {
		t.Fatalf("rejected pushes left a trace: %d loads, %d sessions, shard swapped=%v",
			s.SnapshotLoads(), s.LoadSessions(), s.Shard() != f.shard)
	}
	// The original index still serves.
	url := f.cat.Products[0].ImageURLs[0]
	resp := callSearch(t, s.Addr(), &core.SearchRequest{Feature: f.feats[url], TopK: 1, NProbe: 8, Category: -1})
	if len(resp.Hits) == 0 {
		t.Fatal("index lost after rejected push")
	}
}

// TestPushKeepsSearchWorkers: a pushed shard takes the serving shard's
// scan width. The serving shard is built at SearchWorkers 5, above the
// cap of the GOMAXPROCS-derived default (4), so a sink that built the
// fresh shard from a default config would report another width.
func TestPushKeepsSearchWorkers(t *testing.T) {
	f := newFixture(t, 10)
	cfg := f.shard.Config()
	cfg.SearchWorkers = 5
	own, err := index.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Shard: own})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := PushSnapshot(ctx, s.Addr(), f.shard, 0); err != nil {
		t.Fatalf("PushSnapshot: %v", err)
	}
	if s.Shard() == own {
		t.Fatal("push did not swap the serving shard")
	}
	if got := s.Shard().SearchWorkers(); got != 5 {
		t.Fatalf("pushed shard SearchWorkers = %d, want 5", got)
	}
}

// TestPushSnapshotPQMultiChunk: a PQ-enabled snapshot — quantizer, code
// matrix and covered offset — must round-trip through the chunked
// streaming push path and serve the ADC scan on the receiving searcher,
// even though the receiver's original shard never had a quantizer.
func TestPushSnapshotPQMultiChunk(t *testing.T) {
	f := newFixture(t, 40)
	s, err := New(Config{Shard: f.shard})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	next := pqShard(t, f, 8)
	next.SetCoveredOffset(123)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// A 4 KiB chunk forces a long multi-chunk session.
	if err := PushSnapshot(ctx, s.Addr(), next, 4<<10); err != nil {
		t.Fatalf("PushSnapshot: %v", err)
	}
	got := s.Shard()
	if !got.PQEnabled() {
		t.Fatal("pushed PQ snapshot installed without its quantizer")
	}
	if off := got.CoveredOffset(); off != 123 {
		t.Fatalf("covered offset %d, want 123", off)
	}
	if st := got.Stats(); st.PQCodes != st.Images || st.Images == 0 {
		t.Fatalf("pushed shard has %d codes for %d images", st.PQCodes, st.Images)
	}
	// The ADC path agrees with the source shard on queries.
	for i := 0; i < 5; i++ {
		url := f.cat.Products[i].ImageURLs[0]
		want, err := next.Search(&core.SearchRequest{Feature: f.feats[url], TopK: 5, NProbe: 8, Category: -1})
		if err != nil {
			t.Fatal(err)
		}
		resp := callSearch(t, s.Addr(), &core.SearchRequest{Feature: f.feats[url], TopK: 5, NProbe: 8, Category: -1})
		if len(resp.Hits) != len(want.Hits) {
			t.Fatalf("query %d: %d hits, want %d", i, len(resp.Hits), len(want.Hits))
		}
		for j := range want.Hits {
			if resp.Hits[j].Image.Local != want.Hits[j].Image.Local {
				t.Fatalf("query %d hit %d: image %d, want %d", i, j, resp.Hits[j].Image.Local, want.Hits[j].Image.Local)
			}
		}
	}
}

// pqShard builds a PQ-enabled shard over the fixture's corpus at the
// requested bit width.
func pqShard(t *testing.T, f *fixture, bits int) *index.Shard {
	t.Helper()
	s, err := index.New(index.Config{Dim: testDim, NLists: 8, DefaultNProbe: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetCodebook(f.shard.Codebook()); err != nil {
		t.Fatal(err)
	}
	var train []float32
	for _, feat := range f.feats {
		train = append(train, feat...)
	}
	cb, err := pq.Train(pq.Config{Dim: testDim, M: 4, Bits: bits, Seed: 3}, train)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetPQCodebook(cb); err != nil {
		t.Fatal(err)
	}
	for i := range f.cat.Products {
		p := &f.cat.Products[i]
		for _, url := range p.ImageURLs {
			if _, _, err := s.Insert(p.Attrs(url), f.feats[url]); err != nil {
				t.Fatal(err)
			}
		}
	}
	return s
}

// TestPushSnapshot4BitMultiChunk: a 4-bit fast-scan snapshot (packed
// per-list code blocks) must round-trip through the chunked
// streaming push and serve the blocked ADC scan on the receiver.
func TestPushSnapshot4BitMultiChunk(t *testing.T) {
	f := newFixture(t, 40)
	s, err := New(Config{Shard: f.shard})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	next := pqShard(t, f, 4)
	next.SetCoveredOffset(321)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := PushSnapshot(ctx, s.Addr(), next, 4<<10); err != nil {
		t.Fatalf("PushSnapshot: %v", err)
	}
	got := s.Shard()
	if !got.PQEnabled() {
		t.Fatal("pushed 4-bit snapshot installed without its quantizer")
	}
	st := got.Stats()
	if st.PQBits != 4 {
		t.Fatalf("pushed shard serves %d-bit codes, want 4", st.PQBits)
	}
	if off := got.CoveredOffset(); off != 321 {
		t.Fatalf("covered offset %d, want 321", off)
	}
	if st.PQCodes != st.Images || st.Images == 0 {
		t.Fatalf("pushed shard has %d codes for %d images", st.PQCodes, st.Images)
	}
	for i := 0; i < 5; i++ {
		url := f.cat.Products[i].ImageURLs[0]
		req := &core.SearchRequest{Feature: f.feats[url], TopK: 5, NProbe: 8, Category: -1}
		want, err := next.Search(req)
		if err != nil {
			t.Fatal(err)
		}
		resp := callSearch(t, s.Addr(), req)
		if len(resp.Hits) != len(want.Hits) {
			t.Fatalf("query %d: %d hits, want %d", i, len(resp.Hits), len(want.Hits))
		}
		for j := range want.Hits {
			if resp.Hits[j].Image.Local != want.Hits[j].Image.Local || resp.Hits[j].Dist != want.Hits[j].Dist {
				t.Fatalf("query %d hit %d: %+v, want %+v", i, j, resp.Hits[j], want.Hits[j])
			}
		}
	}
}
