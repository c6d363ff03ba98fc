package broker

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"sync"
	"sync/atomic"
	"time"

	"jdvs/internal/cache"
	"jdvs/internal/metrics"
	"jdvs/internal/search"
)

// resultCache is the broker-level result cache: encoded result pages keyed
// by the request's content digest — which covers the query feature, filter
// predicates, scopes, and k, because all of them are part of the encoded
// SearchRequest. Entries are invalidated by watermark, not TTL: each entry
// records, per covered partition group, the applied-offset watermark the
// searchers reported when the page was computed, and the entry is served
// only while no group's current watermark has advanced past its snapshot
// plus maxLag offsets. The watermark rides the searchers' existing
// MethodStats payload (searcher.Stats.AppliedOffset) — no new RPCs — and is
// refreshed by a background poller, so a cached page can never resurrect a
// tombstoned or refreshed image beyond the configured staleness bound.
type resultCache struct {
	entries *cache.Cache[cachedResult]
	maxLag  int64

	// marks[g] is partition group g's current applied-offset watermark:
	// the monotonic max of every replica's reported AppliedOffset.
	marks []atomic.Int64

	hits           metrics.Counter
	misses         metrics.Counter
	staleEvictions metrics.Counter
	pollErrors     metrics.Counter

	pollStop chan struct{}
	pollWG   sync.WaitGroup
}

// cachedResult is one cached page with its per-group watermark snapshot.
type cachedResult struct {
	resp  []byte
	marks []int64
}

// newResultCache builds the cache and takes an initial watermark reading;
// poll > 0 also starts the background refresher.
func newResultCache(b *Broker, size int, maxLag int64, poll time.Duration) *resultCache {
	rc := &resultCache{
		entries:  cache.New[cachedResult](size),
		maxLag:   maxLag,
		marks:    make([]atomic.Int64, len(b.groups)),
		pollStop: make(chan struct{}),
	}
	rc.refreshWatermarks(b)
	if poll > 0 {
		rc.pollWG.Add(1)
		go rc.pollLoop(b, poll)
	}
	return rc
}

func (rc *resultCache) stop() {
	close(rc.pollStop)
	rc.pollWG.Wait()
}

func (rc *resultCache) pollLoop(b *Broker, every time.Duration) {
	defer rc.pollWG.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-rc.pollStop:
			return
		case <-t.C:
			rc.refreshWatermarks(b)
		}
	}
}

// appliedStats is the slice of searcher.Stats the watermark needs; decoding
// into a local struct keeps the broker from importing the searcher package.
type appliedStats struct {
	AppliedOffset int64 `json:"applied_offset"`
}

// refreshWatermarks reads every replica's applied offset over the existing
// stats endpoint and raises each group's watermark to the max it saw.
// Replicas of one group consume the same queue partition, so the max is the
// furthest any copy of the data has moved — the conservative invalidation
// signal. Unreachable replicas are skipped (and counted): a down replica
// cannot advance its shard, so the remaining reads still bound staleness.
func (rc *resultCache) refreshWatermarks(b *Broker) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	for gi, g := range b.groups {
		for _, pool := range g.pools {
			raw, err := pool.Call(ctx, search.MethodStats, nil)
			if err != nil {
				rc.pollErrors.Inc()
				continue
			}
			var st appliedStats
			if err := json.Unmarshal(raw, &st); err != nil {
				rc.pollErrors.Inc()
				continue
			}
			casMax(&rc.marks[gi], st.AppliedOffset)
		}
	}
}

// casMax raises a monotonic watermark to v if v is ahead of it.
func casMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// cacheKey digests the raw encoded request — feature vector, predicates,
// scopes, and TopK all live in the payload, so byte-identical payloads are
// exactly the queries that may share a page.
func cacheKey(payload []byte) string {
	sum := sha256.Sum256(payload)
	return string(sum[:])
}

// snapshotMarks captures the current per-group watermarks — taken BEFORE
// the fan-out, so a page computed while updates were landing is attributed
// to the older, more conservative snapshot.
func (rc *resultCache) snapshotMarks() []int64 {
	out := make([]int64, len(rc.marks))
	for i := range rc.marks {
		out[i] = rc.marks[i].Load()
	}
	return out
}

// get returns a cached page for key if every covered group's watermark is
// still within maxLag of the entry's snapshot. A stale entry is removed and
// counted; the caller recomputes.
func (rc *resultCache) get(key string) ([]byte, bool) {
	e, ok := rc.entries.Get(key)
	if !ok {
		rc.misses.Inc()
		return nil, false
	}
	for g := range e.marks {
		if rc.marks[g].Load() > e.marks[g]+rc.maxLag {
			rc.entries.Remove(key)
			rc.staleEvictions.Inc()
			rc.misses.Inc()
			return nil, false
		}
	}
	rc.hits.Inc()
	return e.resp, true
}

// put stores a freshly computed full page under key with the watermark
// snapshot taken before its fan-out.
func (rc *resultCache) put(key string, resp []byte, marks []int64) {
	//jdvs:alias-ok resp is a freshly encoded page and marks a fresh watermark snapshot; the sole caller (Broker.handleSearch) hands both over write-once and never touches them again
	rc.entries.Put(key, cachedResult{resp: resp, marks: marks}, int64(len(resp)))
}
