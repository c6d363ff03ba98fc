// Package a seeds the three aliasing handoff shapes. batchRace is the
// single-flight batch-dedup race reproduced verbatim from a since-removed
// SearchBatch; batchFixed is the deep-copy fix it shipped with.
package a

import (
	"fixtures/src/aliasshare/core"
	"fixtures/src/aliasshare/internal/cache"
)

// batchRace is the PR 9 shape: deduplicated queries alias the leader's
// response into every follower slot, and per-slot waiters then race on
// the shared Hits backing.
func batchRace(leaderOf []int, resps []*core.SearchResponse, errs []error) {
	for i, j := range leaderOf {
		if j == i {
			continue
		}
		errs[i] = errs[j]
		if r := resps[j]; r != nil {
			resps[i] = r // want `aliases one element of resps into another slot`
		}
	}
}

// batchFixed is the fix: copy the struct, clone the Hits
// backing. The lattice tracks the per-field kill, so this is clean.
func batchFixed(leaderOf []int, resps []*core.SearchResponse, errs []error) {
	for i, j := range leaderOf {
		if j == i {
			continue
		}
		errs[i] = errs[j]
		if r := resps[j]; r != nil {
			cp := *r
			// Deep-copy the hits: batch members belong to concurrent
			// callers; aliased hit slices would race.
			cp.Hits = append([]core.Hit(nil), r.Hits...)
			resps[i] = &cp
		}
	}
}

// batchShallow copies the struct but keeps the Hits backing aliased —
// the subtle wrong version of the fix.
func batchShallow(leaderOf []int, resps []*core.SearchResponse) {
	for i, j := range leaderOf {
		if j == i {
			continue
		}
		if r := resps[j]; r != nil {
			cp := *r
			resps[i] = &cp // want `aliases one element of resps into another slot`
		}
	}
}

type resultCache struct {
	entries *cache.Cache[cached]
}

type cached struct {
	resp  []byte
	marks []int64
}

// putShared publishes a value whose slices the caller still holds.
func (rc *resultCache) putShared(key string, resp []byte, marks []int64) {
	rc.entries.Put(key, cached{resp: resp, marks: marks}, int64(len(resp))) // want `retains mutable state reachable through parameter`
}

// putCopied deep-copies before publication.
func (rc *resultCache) putCopied(key string, resp []byte, marks []int64) {
	c := cached{
		resp:  append([]byte(nil), resp...),
		marks: append([]int64(nil), marks...),
	}
	rc.entries.Put(key, c, int64(len(c.resp)))
}

// putJustified carries the escape hatch: the page bytes are write-once
// by contract.
func (rc *resultCache) putJustified(key string, resp []byte, marks []int64) {
	//jdvs:alias-ok page bytes and watermark snapshot are write-once after assembly; no producer mutation follows publication
	rc.entries.Put(key, cached{resp: resp, marks: marks}, int64(len(resp)))
}

// putFresh stores a freshly built value: clean.
func (rc *resultCache) putFresh(key string, n int) {
	c := cached{resp: make([]byte, n), marks: make([]int64, 4)}
	rc.entries.Put(key, c, int64(n))
}

type waiter struct {
	ch chan *core.SearchResponse
}

// fanoutShared broadcasts one mutable response to every waiter.
func fanoutShared(waiters []waiter, resp *core.SearchResponse) {
	for _, w := range waiters {
		w.ch <- resp // want `same mutable value is sent to a receiver on every iteration`
	}
}

// fanoutPerSlot sends each waiter its own slot: the payload names the
// loop index, so it is per-iteration.
func fanoutPerSlot(waiters []waiter, resps []*core.SearchResponse) {
	for i, w := range waiters {
		w.ch <- resps[1+i]
	}
}

// fanoutCopied sends a per-iteration deep copy.
func fanoutCopied(waiters []waiter, resp *core.SearchResponse) {
	for _, w := range waiters {
		cp := *resp
		cp.Hits = append([]core.Hit(nil), resp.Hits...)
		w.ch <- &cp
	}
}

// signalFanout broadcasts a value-free signal: nothing mutable crosses.
func signalFanout(done []chan struct{}) {
	for _, ch := range done {
		ch <- struct{}{}
	}
}

// growInPlace: s[i] = append(s[i], ...) recirculates the slot's own
// backing; no second consumer gains a reference.
func growInPlace(perPartition [][]core.Hit, h core.Hit, p int) {
	perPartition[p] = append(perPartition[p], h)
	perPartition[p] = perPartition[p][:len(perPartition[p])-1]
}

// crossSlotAppend seeds slot j's backing into slot i: still a shared
// element, still flagged.
func crossSlotAppend(perPartition [][]core.Hit, h core.Hit, i, j int) {
	perPartition[i] = append(perPartition[j], h) // want `aliases one element of perPartition into another slot`
}

// fanoutInlineLit constructs the payload at the send site: a fresh value
// per iteration even though no loop variable appears in it.
func fanoutInlineLit(waiters []waiter, err error) {
	for _, w := range waiters {
		w.ch <- &core.SearchResponse{Scanned: scannedFor(err)}
	}
}

func scannedFor(err error) int {
	if err != nil {
		return -1
	}
	return 0
}
