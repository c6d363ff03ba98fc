package broker

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"jdvs/internal/core"
	"jdvs/internal/rpc"
	"jdvs/internal/search"
)

// fakeReplica is a searcher stand-in whose behaviour can be flipped at
// runtime: answer fast, answer after a delay, answer garbage, fail, or
// hang until released. Its canned response carries ProductID = id so a
// test can tell which replica won a query.
type fakeReplica struct {
	id      uint64
	addr    string
	srv     *rpc.Server
	resp    []byte
	mode    atomic.Int32
	delay   atomic.Int64 // ns, for modeSlow
	calls   atomic.Int64
	applied atomic.Int64 // reported over MethodStats for result-cache tests
	unhang  chan struct{}
}

const (
	modeFast int32 = iota
	modeSlow
	modeGarbage
	modeSlowErr
	modeHang
)

func newFakeReplica(t testing.TB, id uint64) *fakeReplica {
	t.Helper()
	f := &fakeReplica{
		id:     id,
		unhang: make(chan struct{}),
		resp: core.EncodeSearchResponse(&core.SearchResponse{
			Hits:   []core.Hit{{Image: core.ImageRef{Local: uint32(id)}, Dist: 0.5, ProductID: id, URL: "fake"}},
			Probed: 1,
		}),
	}
	f.srv = rpc.NewServer()
	f.srv.Handle(search.MethodSearch, f.handle)
	f.srv.Handle(search.MethodStats, func([]byte) ([]byte, error) {
		return json.Marshal(map[string]int64{"applied_offset": f.applied.Load()})
	})
	addr, err := f.srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f.addr = addr
	t.Cleanup(func() {
		f.release()
		f.srv.Close()
	})
	return f
}

// release lets hung handlers return so Server.Close can drain.
func (f *fakeReplica) release() {
	select {
	case <-f.unhang:
	default:
		close(f.unhang)
	}
}

func (f *fakeReplica) handle([]byte) ([]byte, error) {
	f.calls.Add(1)
	switch f.mode.Load() {
	case modeSlow:
		time.Sleep(time.Duration(f.delay.Load()))
		return f.resp, nil
	case modeGarbage:
		return []byte{0xFF, 0xEE, 0xDD}, nil
	case modeSlowErr:
		time.Sleep(time.Duration(f.delay.Load()))
		return nil, errors.New("fake replica: injected failure")
	case modeHang:
		<-f.unhang
		return nil, errors.New("fake replica: released from hang")
	default:
		return f.resp, nil
	}
}

func validReq() *core.SearchRequest {
	return &core.SearchRequest{Feature: []float32{1, 2, 3, 4}, TopK: 3, NProbe: 4, Category: -1}
}

func brokerStats(t testing.TB, addr string) Stats {
	t.Helper()
	c, err := rpc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	raw, err := c.Call(context.Background(), search.MethodStats, nil)
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitGoroutines polls until the process goroutine count drops to max, or
// fails with a full stack dump.
func waitGoroutines(t *testing.T, max int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= max {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines stuck at %d (want <= %d):\n%s", runtime.NumGoroutine(), max, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestHedgeSlowReplicaWins: once a group is warmed up, a query whose
// primary replica turns slow is answered by the hedged attempt at roughly
// the hedge delay, not at the slow replica's latency.
func TestHedgeSlowReplicaWins(t *testing.T) {
	slow, fast := newFakeReplica(t, 1), newFakeReplica(t, 2)
	b, err := New(Config{
		PartitionReplicas: [][]string{{slow.addr, fast.addr}},
		HedgeMinDelay:     2 * time.Millisecond,
		HedgeWarmup:       8,
		HedgeWindow:       64,
		HedgeMaxFraction:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// Warm the latency window while both replicas are fast.
	for i := 0; i < 40; i++ {
		if _, err := callBroker(t, b.Addr(), validReq()); err != nil {
			t.Fatalf("warmup query %d: %v", i, err)
		}
	}

	slow.mode.Store(modeSlow)
	slow.delay.Store(int64(250 * time.Millisecond))
	for i := 0; i < 20; i++ {
		startAt := time.Now()
		resp, err := callBroker(t, b.Addr(), validReq())
		elapsed := time.Since(startAt)
		if err != nil {
			t.Fatalf("query %d with slow replica: %v", i, err)
		}
		if len(resp.Hits) == 0 {
			t.Fatalf("query %d returned no hits", i)
		}
		// Every query — including those whose round-robin primary is the
		// slow replica — must finish far below the 250ms injected latency.
		if elapsed > 150*time.Millisecond {
			t.Fatalf("query %d took %v; hedge did not rescue the slow primary", i, elapsed)
		}
	}

	st := brokerStats(t, b.Addr())
	if st.Hedges == 0 || st.HedgeWins == 0 {
		t.Fatalf("stats = %+v, want hedges > 0 and hedge wins > 0", st)
	}
	if st.HedgeCancels == 0 {
		t.Fatalf("stats = %+v, want hedge cancels > 0 (slow losers abandoned)", st)
	}
	if len(st.Groups) != 1 || st.Groups[0].Samples == 0 {
		t.Fatalf("stats groups = %+v, want one sampled group", st.Groups)
	}
}

// TestHedgeBudgetExhaustedFallsBackToFailover: with a starved hedge
// budget, a slow-then-failing primary is never hedged — the query pays the
// primary's latency and then fails over sequentially, and still succeeds.
func TestHedgeBudgetExhaustedFallsBackToFailover(t *testing.T) {
	flaky, healthy := newFakeReplica(t, 1), newFakeReplica(t, 2)
	b, err := New(Config{
		PartitionReplicas: [][]string{{flaky.addr, healthy.addr}},
		HedgeMinDelay:     time.Millisecond,
		HedgeWarmup:       4,
		HedgeWindow:       64,
		// One millitoken per query: the budget can never reach a whole
		// hedge within this test.
		HedgeMaxFraction: 0.001,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	for i := 0; i < 10; i++ {
		if _, err := callBroker(t, b.Addr(), validReq()); err != nil {
			t.Fatalf("warmup query %d: %v", i, err)
		}
	}

	flaky.mode.Store(modeSlowErr)
	flaky.delay.Store(int64(30 * time.Millisecond))
	sawSlowPath := false
	for i := 0; i < 10; i++ {
		startAt := time.Now()
		resp, err := callBroker(t, b.Addr(), validReq())
		elapsed := time.Since(startAt)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if len(resp.Hits) == 0 || resp.Hits[0].ProductID != healthy.id {
			t.Fatalf("query %d not answered by healthy replica: %+v", i, resp.Hits)
		}
		if elapsed >= 30*time.Millisecond {
			sawSlowPath = true // paid the primary's full latency: no hedge fired
		}
	}
	if !sawSlowPath {
		t.Fatal("no query paid the flaky primary's latency; round-robin never picked it?")
	}
	st := brokerStats(t, b.Addr())
	if st.Hedges != 0 {
		t.Fatalf("stats = %+v, want zero hedges with a starved budget", st)
	}
	if st.Failures == 0 {
		t.Fatalf("stats = %+v, want failover failures counted", st)
	}
}

// TestHedgeCancellationNoGoroutineLeak: hedged queries whose losers are
// cancelled must not leave attempt goroutines behind (run under -race in
// CI).
func TestHedgeCancellationNoGoroutineLeak(t *testing.T) {
	slow, fast := newFakeReplica(t, 1), newFakeReplica(t, 2)
	b, err := New(Config{
		PartitionReplicas: [][]string{{slow.addr, fast.addr}},
		HedgeMinDelay:     2 * time.Millisecond,
		HedgeWarmup:       8,
		HedgeWindow:       64,
		HedgeMaxFraction:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for i := 0; i < 20; i++ {
		if _, err := callBroker(t, b.Addr(), validReq()); err != nil {
			t.Fatal(err)
		}
	}
	baseline := runtime.NumGoroutine()

	slow.mode.Store(modeSlow)
	slow.delay.Store(int64(100 * time.Millisecond))
	for i := 0; i < 10; i++ {
		if _, err := callBroker(t, b.Addr(), validReq()); err != nil {
			t.Fatal(err)
		}
	}
	// Attempt goroutines and the slow server's sleeping handlers must all
	// drain; allow a little scheduler slack over the baseline.
	waitGoroutines(t, baseline+2)
}

// TestUnstoppedTimersAreCollected pins what lets fanout.run, and every
// other timer in the module, skip a Stop on some path: under the go.mod
// floor's timer semantics (Go 1.23 on) a timer or ticker that nothing
// references is garbage, fired or not. Before them each one below stayed
// in the runtime's timer heap until it fired, an hour on, ≈ 78 MB in all;
// GODEBUG=asynctimerchan=1 restores that, and this test fails under it.
func TestUnstoppedTimersAreCollected(t *testing.T) {
	const n = 100_000
	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := liveHeap()
	for i := 0; i < n; i++ {
		time.NewTimer(time.Hour)
		time.NewTicker(time.Hour)
		select {
		case <-time.After(time.Hour):
		default:
		}
	}
	after := liveHeap()
	if grown := int64(after) - int64(before); grown > 8<<20 {
		t.Fatalf("live heap grew %d KB over %d unstopped timers, tickers and time.After calls each", grown>>10, n)
	}
}

// TestQueryTimeoutCancelsHedges: an expired overall deadline must abort
// the primary and its in-flight hedge promptly, return the healthy
// partitions' partial results, and leak no goroutines.
func TestQueryTimeoutCancelsHedges(t *testing.T) {
	wedgyA, wedgyB := newFakeReplica(t, 1), newFakeReplica(t, 2)
	healthy := newFakeReplica(t, 3)
	b, err := New(Config{
		PartitionReplicas: [][]string{{wedgyA.addr, wedgyB.addr}, {healthy.addr}},
		SearcherTimeout:   10 * time.Second,
		QueryTimeout:      300 * time.Millisecond,
		HedgeMinDelay:     time.Millisecond,
		HedgeWarmup:       8,
		HedgeWindow:       64,
		HedgeMaxFraction:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	// Warm past the window's quantile-refresh interval so the hedge
	// trigger is armed for the wedged partition's group.
	for i := 0; i < 40; i++ {
		if _, err := callBroker(t, b.Addr(), validReq()); err != nil {
			t.Fatal(err)
		}
	}
	baseline := runtime.NumGoroutine()

	wedgyA.mode.Store(modeHang)
	wedgyB.mode.Store(modeHang)
	startAt := time.Now()
	resp, err := callBroker(t, b.Addr(), validReq())
	elapsed := time.Since(startAt)
	if err != nil {
		t.Fatalf("query with wedged partition failed outright: %v", err)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("query took %v; deadline did not cancel the hedged attempts", elapsed)
	}
	if len(resp.Hits) == 0 || resp.Hits[0].ProductID != healthy.id {
		t.Fatalf("healthy partition's partial results missing: %+v", resp.Hits)
	}

	st := brokerStats(t, b.Addr())
	if st.Partials == 0 {
		t.Fatalf("stats = %+v, want partials > 0", st)
	}
	if st.Hedges == 0 {
		t.Fatalf("stats = %+v, want the wedged primary to have been hedged", st)
	}
	if st.Failures == 0 {
		t.Fatalf("stats = %+v, want aborted attempts counted as failures", st)
	}

	// Broker-side attempt goroutines must exit with the deadline even
	// though the wedged servers never answer. Release the hung handlers
	// (they are in-process goroutines too) before counting.
	wedgyA.release()
	wedgyB.release()
	waitGoroutines(t, baseline+2)
}

// TestUndecodableResponseFailsOver: a replica that delivers garbage bytes
// must count as a failed attempt and fail over to the next replica instead
// of killing its whole partition.
func TestUndecodableResponseFailsOver(t *testing.T) {
	corrupt, healthy := newFakeReplica(t, 1), newFakeReplica(t, 2)
	corrupt.mode.Store(modeGarbage)
	b, err := New(Config{PartitionReplicas: [][]string{{corrupt.addr, healthy.addr}}})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	for i := 0; i < 6; i++ {
		resp, err := callBroker(t, b.Addr(), validReq())
		if err != nil {
			t.Fatalf("query %d failed despite a healthy replica: %v", i, err)
		}
		if len(resp.Hits) == 0 || resp.Hits[0].ProductID != healthy.id {
			t.Fatalf("query %d not answered by the healthy replica: %+v", i, resp.Hits)
		}
	}
	st := brokerStats(t, b.Addr())
	if st.Failures == 0 {
		t.Fatalf("stats = %+v, want undecodable responses counted in failures", st)
	}

	// A partition whose every replica is corrupt still fails the query.
	healthy.mode.Store(modeGarbage)
	if _, err := callBroker(t, b.Addr(), validReq()); err == nil {
		t.Fatal("query succeeded with only corrupt replicas")
	}
}
