package broker

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"jdvs/internal/core"
	"jdvs/internal/rpc"
	"jdvs/internal/search"
)

// TestResultCacheStaleness drives the watermark-invalidation protocol
// deterministically: a cached page keeps serving while every covered
// shard's applied offset stays within the entry's snapshot + MaxLag, and
// is bypassed — counted as a stale eviction — the moment one shard passes
// that bound. The poller is disabled; the test advances offsets and calls
// refreshWatermarks itself.
func TestResultCacheStaleness(t *testing.T) {
	const maxLag = 2
	r0, r1 := newFakeReplica(t, 1), newFakeReplica(t, 2)
	r0.applied.Store(10)
	r1.applied.Store(10)
	br, err := New(Config{
		PartitionReplicas: [][]string{{r0.addr}, {r1.addr}},
		ResultCacheSize:   8,
		ResultCacheMaxLag: maxLag,
		ResultCachePoll:   -1, // manual refreshes only
	})
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()
	query := func() {
		t.Helper()
		if _, err := callBroker(t, br.Addr(), validReq()); err != nil {
			t.Fatal(err)
		}
	}

	// Miss, fan out, cache with marks [10, 10].
	query()
	if got := r0.calls.Load() + r1.calls.Load(); got != 2 {
		t.Fatalf("first query fanned out %d searcher calls; want 2", got)
	}
	// Hit: no new searcher calls.
	query()
	if got := r0.calls.Load() + r1.calls.Load(); got != 2 {
		t.Fatalf("cached query reached the searchers (%d calls)", got)
	}

	// Advance shard 0 exactly to the bound (10 + maxLag): still fresh.
	r0.applied.Store(10 + maxLag)
	br.rcache.refreshWatermarks(br)
	query()
	if got := r0.calls.Load() + r1.calls.Load(); got != 2 {
		t.Fatalf("within-slack query reached the searchers (%d calls)", got)
	}

	// One offset past the bound: the entry must be bypassed and evicted.
	r0.applied.Store(10 + maxLag + 1)
	br.rcache.refreshWatermarks(br)
	query()
	if got := r0.calls.Load() + r1.calls.Load(); got != 4 {
		t.Fatalf("stale query did not recompute (total %d searcher calls; want 4)", got)
	}
	st := brokerStats(t, br.Addr())
	if st.ResultCacheStaleEvictions != 1 {
		t.Fatalf("stale evictions = %d; want 1", st.ResultCacheStaleEvictions)
	}
	if st.ResultCacheHits != 2 || st.ResultCacheMisses != 2 {
		t.Fatalf("hits/misses = %d/%d; want 2/2", st.ResultCacheHits, st.ResultCacheMisses)
	}

	// The recompute re-cached the page under the new watermark snapshot.
	query()
	if got := r0.calls.Load() + r1.calls.Load(); got != 4 {
		t.Fatalf("re-cached query reached the searchers (%d calls)", got)
	}
}

// TestResultCachePollErrorsCounted pins the two dropped watermark reads in
// refreshWatermarks: a replica whose stats payload does not decode and a
// replica that cannot be reached each add one to ResultCachePollErrors per
// refresh, and the group's healthy replica still raises its watermark.
func TestResultCachePollErrorsCounted(t *testing.T) {
	healthy, down, garbled := newFakeReplica(t, 1), newFakeReplica(t, 2), newFakeReplica(t, 3)
	garbled.srv.Handle(search.MethodStats, func([]byte) ([]byte, error) {
		return []byte("not json"), nil
	})
	br, err := New(Config{
		PartitionReplicas: [][]string{{healthy.addr, down.addr, garbled.addr}},
		ResultCacheSize:   8,
		ResultCachePoll:   -1, // manual refreshes only
	})
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()
	refresh := func(applied, wantErrors int64) {
		t.Helper()
		before := brokerStats(t, br.Addr()).ResultCachePollErrors
		healthy.applied.Store(applied)
		br.rcache.refreshWatermarks(br)
		if got := brokerStats(t, br.Addr()).ResultCachePollErrors - before; got != wantErrors {
			t.Fatalf("one refresh added %d poll errors; want %d", got, wantErrors)
		}
		if got := br.rcache.marks[0].Load(); got != applied {
			t.Fatalf("group watermark = %d after the healthy replica reported %d", got, applied)
		}
	}

	refresh(5, 1) // the undecodable payload
	down.srv.Close()
	refresh(7, 2) // and the unreachable replica
	refresh(9, 2)
}

// TestResultCacheConcurrentInvalidation races queries against watermark
// advances and refreshes — the -race proof that the serve/invalidate paths
// share no unsynchronised state. Correctness of counts is covered by the
// deterministic test above; here every query must simply succeed.
func TestResultCacheConcurrentInvalidation(t *testing.T) {
	r0 := newFakeReplica(t, 1)
	br, err := New(Config{
		PartitionReplicas: [][]string{{r0.addr}},
		ResultCacheSize:   64,
		ResultCacheMaxLag: 1,
		ResultCachePoll:   -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // writer: advance the shard and re-read watermarks
		defer wg.Done()
		for i := int64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			r0.applied.Store(i)
			br.rcache.refreshWatermarks(br)
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := rpc.Dial(br.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			req := validReq()
			req.TopK = 3 + w%2 // two distinct cache keys across the workers
			payload := core.EncodeSearchRequest(req)
			for i := 0; i < 200; i++ {
				if _, err := c.Call(context.Background(), search.MethodSearch, payload); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	// Let the queriers finish, then stop the writer.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	defer func() { <-done }()
	defer close(stop)
}

// TestResultCacheSkipsPartialPages checks that a page missing a partition
// is never cached: a repeat of the same query fans out again instead of
// pinning the gap.
func TestResultCacheSkipsPartialPages(t *testing.T) {
	r0, r1 := newFakeReplica(t, 1), newFakeReplica(t, 2)
	br, err := New(Config{
		PartitionReplicas: [][]string{{r0.addr}, {r1.addr}},
		ResultCacheSize:   8,
		ResultCachePoll:   -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()
	r1.srv.Close() // partition 1 goes dark after the broker connected

	for i := 0; i < 2; i++ {
		if _, err := callBroker(t, br.Addr(), validReq()); err != nil {
			t.Fatal(err)
		}
	}
	st := brokerStats(t, br.Addr())
	if st.Partials != 2 {
		t.Fatalf("partials = %d; want 2", st.Partials)
	}
	if st.ResultCacheHits != 0 || st.ResultCacheMisses != 2 {
		t.Fatalf("hits/misses = %d/%d; want 0/2 (partials must not be cached)",
			st.ResultCacheHits, st.ResultCacheMisses)
	}
}

// BenchmarkBrokerCachedQuery is the micro-benchmark of the result cache:
// the same single-partition query with the cache off and on. The cached
// side should collapse to digest-lookup cost; it reports a cache-hitrate
// metric next to the latency numbers.
func BenchmarkBrokerCachedQuery(b *testing.B) {
	for _, cached := range []bool{false, true} {
		b.Run(fmt.Sprintf("cached=%v", cached), func(b *testing.B) {
			r0 := newFakeReplica(b, 7)
			cfg := Config{
				PartitionReplicas: [][]string{{r0.addr}},
				ResultCachePoll:   -1, // static corpus: no invalidation traffic
			}
			if cached {
				cfg.ResultCacheSize = 1024
			}
			br, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer br.Close()
			c, err := rpc.Dial(br.Addr())
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			payload := core.EncodeSearchRequest(validReq())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Call(context.Background(), search.MethodSearch, payload); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := brokerStats(b, br.Addr())
			if st.Queries > 0 {
				b.ReportMetric(float64(st.ResultCacheHits)/float64(st.Queries), "cache-hitrate")
			}
		})
	}
}
