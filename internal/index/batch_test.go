package index

import (
	"math/rand"
	"testing"

	"jdvs/internal/core"
)

// batchRequests synthesises a mixed batch: plain queries, category-scoped
// queries, varying TopK and NProbe — the shapes the collector will feed
// SearchBatch in production.
func batchRequests(rng *rand.Rand, feats [][]float32, n int) []*core.SearchRequest {
	reqs := make([]*core.SearchRequest, n)
	for i := range reqs {
		base := feats[rng.Intn(len(feats))]
		q := make([]float32, len(base))
		for d := range q {
			q[d] = base[d] + float32(rng.NormFloat64()*0.05)
		}
		req := &core.SearchRequest{Feature: q, TopK: 5 + i%10, NProbe: 4 + i%5, Category: -1}
		if i%4 == 3 {
			req.Category = int32(i % 4)
		}
		reqs[i] = req
	}
	return reqs
}

// requireSameResponse fails unless got matches want field for field.
func requireSameResponse(t *testing.T, label string, got, want *core.SearchResponse) {
	t.Helper()
	if got.Scanned != want.Scanned || got.Probed != want.Probed {
		t.Fatalf("%s: scanned/probed %d/%d, want %d/%d", label, got.Scanned, got.Probed, want.Scanned, want.Probed)
	}
	if len(got.Hits) != len(want.Hits) {
		t.Fatalf("%s: %d hits, want %d", label, len(got.Hits), len(want.Hits))
	}
	for i := range want.Hits {
		if got.Hits[i] != want.Hits[i] {
			t.Fatalf("%s hit %d: %+v, want %+v", label, i, got.Hits[i], want.Hits[i])
		}
	}
}

// runBatchMatches runs the same request set batched and unbatched against
// one shard and requires identical responses — the batched path's core
// correctness contract.
func runBatchMatches(t *testing.T, s *Shard, feats [][]float32) {
	t.Helper()
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 4; trial++ {
		reqs := batchRequests(rng, feats, 2+trial*5) // 2, 7, 12, 17 members
		resps, errs := s.SearchBatch(reqs)
		for i, req := range reqs {
			if errs[i] != nil {
				t.Fatalf("trial %d query %d: %v", trial, i, errs[i])
			}
			want, err := s.Search(req)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResponse(t, "batched", resps[i], want)
		}
	}
}

// TestSearchBatchMatchesSearch8Bit: batched execution on the 8-bit ADC
// path must return exactly the per-query Search results.
func TestSearchBatchMatchesSearch8Bit(t *testing.T) {
	_, quant, feats := buildPQPair(t, 3000, 32, 16, 8)
	runBatchMatches(t, quant, feats)
}

// TestSearchBatchMatchesSearch4Bit: same contract on the 4-bit fast-scan
// path, where the batch reuses one id snapshot and one block load across
// members.
func TestSearchBatchMatchesSearch4Bit(t *testing.T) {
	_, quant, feats := buildPQBitsPair(t, 3000, 32, 16, 8, 4)
	runBatchMatches(t, quant, feats)
}

// TestSearchBatchExactFallback: shards without a quantizer serve batches
// as per-query exact searches with identical results.
func TestSearchBatchExactFallback(t *testing.T) {
	exact, _, feats := buildPQPair(t, 1000, 32, 16, 8)
	rng := rand.New(rand.NewSource(3))
	reqs := batchRequests(rng, feats, 6)
	resps, errs := exact.SearchBatch(reqs)
	for i, req := range reqs {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		want, err := exact.Search(req)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResponse(t, "exact fallback", resps[i], want)
	}
}

// TestSearchBatchPerQueryErrors: a bad member fails alone; the rest of
// the batch still answers, and empty-filter members get their empty page.
func TestSearchBatchPerQueryErrors(t *testing.T) {
	_, quant, feats := buildPQBitsPair(t, 1000, 32, 16, 8, 4)
	good := feats[0]
	reqs := []*core.SearchRequest{
		{Feature: good, TopK: 5, NProbe: 4, Category: -1},
		{Feature: good[:16], TopK: 5, NProbe: 4, Category: -1}, // wrong dim
		{Feature: good, TopK: 5, NProbe: 4, Category: 9999},    // never-seen category
		{Feature: feats[7], TopK: 3, NProbe: 4, Category: -1},
	}
	resps, errs := quant.SearchBatch(reqs)
	if errs[0] != nil || errs[3] != nil {
		t.Fatalf("good members errored: %v / %v", errs[0], errs[3])
	}
	if errs[1] == nil {
		t.Fatal("wrong-dim member did not error")
	}
	if resps[1] != nil {
		t.Fatal("errored member produced a response")
	}
	if errs[2] != nil || resps[2] == nil || len(resps[2].Hits) != 0 {
		t.Fatalf("never-seen category: err=%v resp=%+v", errs[2], resps[2])
	}
	for _, i := range []int{0, 3} {
		want, err := quant.Search(reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		requireSameResponse(t, "mixed batch", resps[i], want)
	}
	// Empty and singleton batches.
	if resps, errs := quant.SearchBatch(nil); len(resps) != 0 || len(errs) != 0 {
		t.Fatalf("empty batch: %d resps, %d errs", len(resps), len(errs))
	}
	one, oneErrs := quant.SearchBatch(reqs[:1])
	if oneErrs[0] != nil {
		t.Fatal(oneErrs[0])
	}
	want, err := quant.Search(reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	requireSameResponse(t, "singleton batch", one[0], want)
}

// TestSearchBatchDuplicateSingleFlight: identical requests inside a batch
// are answered once and every duplicate still gets exactly the response an
// unbatched Search returns, as a caller-owned copy.
func TestSearchBatchDuplicateSingleFlight(t *testing.T) {
	for _, bits := range []int{8, 4} {
		_, quant, feats := buildPQBitsPair(t, 1500, 32, 16, 8, bits)
		hot := &core.SearchRequest{Feature: feats[3], TopK: 7, NProbe: 5, Category: -1}
		other := &core.SearchRequest{Feature: feats[9], TopK: 7, NProbe: 5, Category: -1}
		// Same feature but different parameters must NOT be deduplicated.
		narrow := &core.SearchRequest{Feature: feats[3], TopK: 3, NProbe: 2, Category: -1}
		reqs := []*core.SearchRequest{hot, other, hot, narrow, hot, hot}
		resps, errs := quant.SearchBatch(reqs)
		for i, req := range reqs {
			if errs[i] != nil {
				t.Fatalf("bits=%d query %d: %v", bits, i, errs[i])
			}
			want, err := quant.Search(req)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResponse(t, "deduped batch", resps[i], want)
		}
		if resps[0] == resps[2] || resps[2] == resps[4] {
			t.Fatalf("bits=%d: duplicates share a response struct", bits)
		}
		// Hit slices must not alias either: batch members belong to
		// concurrent RPC handlers that stamp partition ids into their
		// hits after the batch returns.
		if len(resps[0].Hits) > 0 && &resps[0].Hits[0] == &resps[2].Hits[0] {
			t.Fatalf("bits=%d: duplicates share a hit backing array", bits)
		}
	}
}

// TestSearchBatchFiltered: predicate-filtered members inside a batch keep
// the plan and exact filtering of the unbatched path.
func TestSearchBatchFiltered(t *testing.T) {
	_, quant, feats := buildPQBitsPair(t, 2000, 32, 16, 8, 4)
	reqs := []*core.SearchRequest{
		{Feature: feats[0], TopK: 10, NProbe: 4, Category: 2},
		{Feature: feats[1], TopK: 10, NProbe: 4, Category: -1, MinSales: 1},
		{Feature: feats[2], TopK: 10, NProbe: 4, Category: 1},
	}
	resps, errs := quant.SearchBatch(reqs)
	for i, req := range reqs {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		want, err := quant.Search(req)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResponse(t, "filtered batch", resps[i], want)
		if req.Category >= 0 {
			for _, h := range resps[i].Hits {
				if int32(h.Category) != req.Category {
					t.Fatalf("query %d leaked category %d", i, h.Category)
				}
			}
		}
	}
}
