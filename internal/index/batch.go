package index

import (
	"encoding/binary"
	"math"
	"runtime"
	"sort"

	"jdvs/internal/core"
)

// SearchBatch executes several queries in one pass over the shard's
// inverted lists. Each query keeps its own probe set, admission filter,
// lookup table and top-k selector — prepared exactly as Search prepares
// them — but the scan visits each probed list once, scoring every batched
// query that probes it against the same resident code bytes: a code block
// is loaded once and swept through the block scorer for each member while
// it is still cache-hot. Requests that are identical field for field are
// single-flighted: one member scans on behalf of all of them and the
// duplicates receive copies of its response. Batch members are scored on
// the calling goroutine — the batch itself is the concurrency — so
// SearchWorkers does not apply here.
//
// Results are exactly the per-query Search results over the same corpus
// snapshot: both run the same traversal (scanADC), and candidate selection
// is a pure function of the scored candidate multiset (topk orders by
// (Dist, ID), so push order is irrelevant). The returned slices are
// parallel to reqs: position i holds the query's response or its error.
//
// Shards without a product quantizer fall back to per-query Search: exact
// scoring reads a feature row per candidate either way, so there is no
// shared work for a batch to amortise.
func (s *Shard) SearchBatch(reqs []*core.SearchRequest) ([]*core.SearchResponse, []error) {
	resps := make([]*core.SearchResponse, len(reqs))
	errs := make([]error, len(reqs))
	if len(reqs) == 0 {
		return resps, errs
	}
	ps := s.pqState.Load()
	if len(reqs) == 1 || ps == nil {
		for i, req := range reqs {
			resps[i], errs[i] = s.Search(req)
		}
		return resps, errs
	}
	// Raw rows are read during the per-query exact re-rank; keep a
	// disk-backed store's mapping alive for the duration (see Search).
	defer runtime.KeepAlive(s)

	// Single-flight identical requests: the skewed concurrent traffic this
	// path exists for routinely lands the same hot query several times in
	// one collection window. A duplicate rides its leader — one lookup
	// table, one share of every list scan — and takes a deep copy of the
	// leader's response (batch members belong to different caller
	// goroutines, which mutate their hits after the batch returns).
	leaderOf := make([]int, len(reqs))
	seen := make(map[string]int, len(reqs))
	var kbuf []byte
	for i, req := range reqs {
		kbuf = batchKey(kbuf, req)
		if j, ok := seen[string(kbuf)]; ok {
			leaderOf[i] = j
			continue
		}
		seen[string(kbuf)] = i
		leaderOf[i] = i
	}

	members := make([]*query, 0, len(reqs))
	defer func() {
		for _, q := range members {
			searchScratchPool.Put(q.sc)
		}
	}()
	for i, req := range reqs {
		if leaderOf[i] != i {
			continue
		}
		sc := searchScratchPool.Get().(*searchScratch)
		q := &query{idx: i, sc: sc}
		resps[i], errs[i] = s.prepare(q, req, ps)
		if resps[i] != nil || errs[i] != nil {
			searchScratchPool.Put(sc)
			continue
		}
		q.sel = sc.selectors(1, q.rerankK)[0]
		members = append(members, q)
	}
	if len(members) == 0 {
		return resps, errs
	}

	// Invert the probe sets: list → the batch members that probe it, so
	// the traversal touches each list's codes exactly once. The sorted
	// order only makes traversal deterministic; results do not depend on
	// it.
	byList := make(map[int][]*query, len(members)*len(members[0].sc.probe))
	for _, q := range members {
		for _, l := range q.sc.probe {
			byList[l] = append(byList[l], q)
		}
	}
	lists := make([]int, 0, len(byList))
	for l := range byList {
		lists = append(lists, l)
	}
	sort.Ints(lists)

	// The id copy buffer is borrowed from the first member's scratch: the
	// batch traversal is serial, so worker slot 0 is free.
	host := members[0].sc
	host.ensureIDBufs(1)
	s.scanADC(ps, lists, 0, 1, nil, byList, &host.ids[0])

	for _, q := range members {
		items := s.rerankExact(q.req, q.k, q.sel.Items(), q.sc, &q.adm)
		resps[q.idx] = s.assembleResponse(items, q.scanned, len(q.sc.probe))
	}
	for i, j := range leaderOf {
		if j == i {
			continue
		}
		errs[i] = errs[j]
		if r := resps[j]; r != nil {
			cp := *r
			// Deep-copy the hits: batch members belong to concurrent
			// callers, and the searcher stamps its partition into each
			// hit after the batch returns — aliased hit slices would race.
			cp.Hits = append([]core.Hit(nil), r.Hits...)
			resps[i] = &cp
		}
	}
	return resps, errs
}

// batchKey renders a request's full identity — the feature's bit pattern
// and every scalar parameter — into buf, reused across calls. Two requests
// with equal keys are answered identically by Search, which is what lets
// SearchBatch single-flight them.
func batchKey(buf []byte, req *core.SearchRequest) []byte {
	buf = buf[:0]
	buf = binary.LittleEndian.AppendUint64(buf, uint64(req.TopK))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(req.NProbe))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(req.Category))
	buf = binary.LittleEndian.AppendUint32(buf, req.MinPriceCents)
	buf = binary.LittleEndian.AppendUint32(buf, req.MaxPriceCents)
	buf = binary.LittleEndian.AppendUint32(buf, req.MinSales)
	for _, v := range req.Feature {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
	}
	return buf
}
