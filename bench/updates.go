package main

import (
	"context"
	"sync/atomic"
	"time"

	"jdvs/internal/cluster"
	"jdvs/internal/indexer"
	"jdvs/internal/msg"
	"jdvs/internal/workload"
)

// tracker times updates from outside the program: the benchmark reads the
// clock before Cluster.Publish and again when OnApplied has fired for every
// image of that event. Slots are indexed by the event's Seq, which the
// benchmark assigns.
type tracker struct {
	slots []slot
	next  atomic.Int64 // events published so far

	additions atomic.Int64
	reused    atomic.Int64
}

type slot struct {
	pubNs   atomic.Int64 // publish time, ns since the tracker's epoch
	left    atomic.Int32 // images of the event not yet applied
	visible atomic.Int64 // publish → last image applied, ns; 0 while pending
}

var epoch = time.Now()

func newTracker(capacity int) *tracker { return &tracker{slots: make([]slot, capacity)} }

// onApplied runs on the searchers' real-time goroutines, once per image.
func (t *tracker) onApplied(u *msg.ProductUpdate, kind string, reused bool, _ time.Duration) {
	if kind == string(workload.KindAddition) {
		t.additions.Add(1)
		if reused {
			t.reused.Add(1)
		}
	}
	if u.Seq >= uint64(len(t.slots)) {
		return
	}
	s := &t.slots[u.Seq]
	if s.left.Add(-1) == 0 {
		s.visible.Store(int64(time.Since(epoch)) - s.pubNs.Load())
	}
}

// publish stamps u with the next slot and sends it. It reports the slot and
// whether the event went out.
func (t *tracker) publish(c *cluster.Cluster, u *msg.ProductUpdate) (int, bool) {
	seq := int(t.next.Add(1) - 1)
	if seq >= len(t.slots) {
		return seq, false
	}
	u.Seq = uint64(seq)
	s := &t.slots[seq]
	s.left.Store(int32(len(u.ImageURLs)))
	s.pubNs.Store(int64(time.Since(epoch)))
	return seq, c.Publish(u) == nil
}

// visible returns, for slots [from,to), each event's publish time from the
// first one's and its publish→visible latency (-1 while pending), and how
// many are not visible yet.
func (t *tracker) visible(from, to int) (atNs, latNs []int64, pending int) {
	if to > len(t.slots) {
		to = len(t.slots)
	}
	for i := from; i < to; i++ {
		atNs = append(atNs, t.slots[i].pubNs.Load()-t.slots[from].pubNs.Load())
		if v := t.slots[i].visible.Load(); v > 0 {
			latNs = append(latNs, v)
		} else {
			latNs = append(latNs, -1)
			pending++
		}
	}
	return atNs, latNs, pending
}

// updateRun is what one paced stretch of the update stream did.
type updateRun struct {
	from, to  int // tracker slots
	failed    int // events Publish refused or the generator could not make
	lagMax    int64
	lateP99Ms float64
}

// pacedUpdates publishes the update mix open loop at rate events/s until
// stop closes or limit events went out (limit 0 = no limit), sampling
// searcher lag every 100 ms.
func pacedUpdates(ctx context.Context, c *cluster.Cluster, t *tracker, mix *workload.MixGen, rate float64, limit int, stop <-chan struct{}) updateRun {
	run := updateRun{from: int(t.next.Load())}
	interval := float64(time.Second) / rate
	start := time.Now()
	nextLag := start
	var late []int64
loop:
	for i := 0; (limit == 0 || i < limit) && ctx.Err() == nil; i++ {
		due := start.Add(time.Duration(float64(i) * interval))
		sleepUntil(due)
		select {
		case <-stop:
			break loop
		default:
		}
		late = append(late, int64(time.Since(due)))
		u, _, _, err := mix.Next()
		if err != nil {
			run.failed++
			continue
		}
		if _, ok := t.publish(c, u); !ok {
			run.failed++
		}
		if now := time.Now(); !now.Before(nextLag) {
			nextLag = now.Add(100 * time.Millisecond)
			if lag := searcherLag(c); lag > run.lagMax {
				run.lagMax = lag
			}
		}
	}
	run.to = int(t.next.Load())
	run.lateP99Ms = supported(sortedMs(late), 99)
	return run
}

// searcherLag is the deepest backlog of any searcher: messages on its
// partition's queue that it has not reflected yet. Replicas count: one that
// is still applying the last drain round would take CPU from the next.
func searcherLag(c *cluster.Cluster) int64 {
	var worst int64
	for p := 0; p < c.Partitions(); p++ {
		n, err := c.Queue.Len(indexer.UpdatesTopic, p)
		if err != nil {
			continue
		}
		for r := 0; r < c.Replicas(); r++ {
			worst = max(worst, n-c.Searcher(p, r).AppliedOffset())
		}
	}
	return worst
}

// waitDrained blocks until every searcher reflects its partition's whole
// queue, or the timeout passes. (Cluster.WaitForDrain subtracts the
// catalog's current image count as its bootstrap length, which the update
// mix grows with every fresh product, so it returns early here.)
func waitDrained(ctx context.Context, c *cluster.Cluster, timeout time.Duration) bool {
	for deadline := time.Now().Add(timeout); searcherLag(c) > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) || ctx.Err() != nil {
			return false
		}
	}
	return true
}

// burst publishes burstEvents events back to back in burstRounds rounds,
// timing each round to drained. It returns every round's events per second
// and process CPU per event, and how many events failed or never drained.
func burst(ctx context.Context, c *cluster.Cluster, t *tracker, mix *workload.MixGen) (eps, cpuUs []float64, failed int) {
	const per = burstEvents / burstRounds
	for round := 0; round < burstRounds; round++ {
		events := make([]*msg.ProductUpdate, 0, per)
		for len(events) < per {
			u, _, _, err := mix.Next()
			if err != nil {
				return nil, nil, burstEvents
			}
			events = append(events, u)
		}
		from := int(t.next.Load())
		start, cpu := time.Now(), cpuTime()
		for _, u := range events {
			if _, ok := t.publish(c, u); !ok {
				failed++
			}
		}
		waitDrained(ctx, c, 30*time.Second)
		eps = append(eps, float64(per)/time.Since(start).Seconds())
		cpuUs = append(cpuUs, us(cpuTime()-cpu)/float64(per))
		_, _, pending := t.visible(from, int(t.next.Load()))
		failed += pending
	}
	return eps, cpuUs, failed
}
