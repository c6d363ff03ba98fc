package broker

import (
	"testing"
	"time"

	"jdvs/internal/core"
)

// TestHungPrimaryFailsOverAfterSearcherTimeout: with hedging off, a
// primary that never answers costs the query one SearcherTimeout, then the
// next replica answers. The timed-out attempt counts as one failure and is
// recorded in the group's latency window.
func TestHungPrimaryFailsOverAfterSearcherTimeout(t *testing.T) {
	healthy, hung := newFakeReplica(t, 1), newFakeReplica(t, 2)
	hung.mode.Store(modeHang)
	const searcherTimeout = 150 * time.Millisecond
	b, err := New(Config{
		// The first query's cursor is 1, so its primary is the second
		// replica: the hung one.
		PartitionReplicas: [][]string{{healthy.addr, hung.addr}},
		SearcherTimeout:   searcherTimeout,
		HedgeQuantile:     -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	startAt := time.Now()
	resp, err := callBroker(t, b.Addr(), validReq())
	elapsed := time.Since(startAt)
	if err != nil {
		t.Fatalf("query with a hung primary: %v", err)
	}
	if len(resp.Hits) == 0 || resp.Hits[0].ProductID != healthy.id {
		t.Fatalf("query not answered by the healthy replica: %+v", resp.Hits)
	}
	if elapsed < searcherTimeout {
		t.Fatalf("query took %v, less than SearcherTimeout: the hung primary was never tried", elapsed)
	}
	if hung.calls.Load() != 1 {
		t.Fatalf("hung replica saw %d calls, want 1", hung.calls.Load())
	}
	st := brokerStats(t, b.Addr())
	if st.Failures != 1 || st.Hedges != 0 || st.Partials != 0 {
		t.Fatalf("stats = %+v, want exactly one failure, no hedge, no partial", st)
	}
	g := st.Groups[0]
	if g.Samples != 2 || g.P99Micros < searcherTimeout.Microseconds() {
		t.Fatalf("group window = %+v, want 2 samples, one of them the %v timeout", g, searcherTimeout)
	}
}

// TestForgottenAttemptReplyIgnored: a reply that arrives for an attempt
// the loop already stopped waiting for — here one that timed out while its
// reply sat in the done channel — changes nothing: the partition is
// answered by its failover attempt, and the stale reply is neither a
// second failure nor a second latency sample.
func TestForgottenAttemptReplyIgnored(t *testing.T) {
	stale, fresh := newFakeReplica(t, 1), newFakeReplica(t, 2)
	b, err := New(Config{
		PartitionReplicas: [][]string{{fresh.addr, stale.addr}}, // cursor 1: stale is primary
		HedgeQuantile:     -1,
		QueryTimeout:      -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	f := b.newFanout(core.EncodeSearchRequest(validReq()), time.Now())
	r := <-f.done // the primary's reply, not yet handled
	f.tick(time.Now().Add(time.Hour))
	if f.atts[0].live || len(f.atts) != 2 {
		t.Fatalf("attempts after the primary's timeout = %+v, want it settled and a failover fired", f.atts)
	}
	f.reply(r, time.Now())
	if f.open != 1 || f.b.failures.Value() != 1 || f.parts[0].g.lat.Count() != 1 {
		t.Fatalf("stale reply was handled: open %d, failures %d, samples %d", f.open, f.b.failures.Value(), f.parts[0].g.lat.Count())
	}
	parts := f.run()
	if parts[0].err != nil || parts[0].resp.Hits[0].ProductID != fresh.id {
		t.Fatalf("partition = %+v, want the failover replica's page", parts[0])
	}
	if f.b.failures.Value() != 1 || f.parts[0].g.lat.Count() != 2 {
		t.Fatalf("after the failover: failures %d, samples %d, want 1 and 2", f.b.failures.Value(), f.parts[0].g.lat.Count())
	}
}
