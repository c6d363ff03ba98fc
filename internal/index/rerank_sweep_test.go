package index

import (
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"jdvs/internal/core"
)

// TestRerankSweep is the measured tuning pass behind the per-bit-width
// default re-rank multipliers (defaultRerankMul8 / defaultRerankMul4): it
// sweeps the ADC over-fetch depth at both code widths over the benchmark
// corpus (100k images, dim 64, nprobe 8, k=10) and prints recall@10
// against the exact scan plus mean query latency at each depth. The sweep
// table lives in docs/OPERATIONS.md; re-run it with
//
//	JDVS_RERANK_SWEEP=1 go test ./internal/index/ -run TestRerankSweep -v
//
// after changing the kernels or the quantizer. Gated behind an env var:
// it builds three 100k-image shards and takes minutes, which is tuning
// work, not regression coverage.
func TestRerankSweep(t *testing.T) {
	if os.Getenv("JDVS_RERANK_SWEEP") == "" {
		t.Skip("set JDVS_RERANK_SWEEP=1 to run the re-rank depth sweep")
	}
	// 512 visual motifs over 100k images ≈ 195 near-variants per motif —
	// the e-commerce shape (hot products re-share near-identical hero
	// images) and the regime where re-rank depth is a real trade: the true
	// neighbours sit inside the query's motif, so recall climbs as RerankK
	// digs through the motif's variants and saturates once it covers them.
	// (The nc=64 benchmark corpus packs ~1,500 variants per motif; there
	// no practical depth can cover a motif and every depth looks equally
	// bad — density tuning, not depth tuning.) PQ trains on 10k rows, the
	// full build's default sample (indexer.FullConfig.TrainSample).
	const n, dim, m, nlists, k, nprobe, queries = 100_000, 64, 16, 64, 10, 8, 200
	const trainRows = 10_000
	rng := rand.New(rand.NewSource(41))
	feats := clusteredFeatures(rng, n, dim, 512, 0.25)
	train := make([]float32, 0, trainRows*dim)
	for i := 0; i < trainRows; i++ {
		train = append(train, feats[i]...)
	}
	build := func(pqM, bits, rerankK int) *Shard {
		s := trainShard(t, Config{DefaultNProbe: nprobe, SearchWorkers: 1, RerankK: rerankK}, nlists, dim, train, 1)
		if pqM > 0 {
			trainPQ(t, s, pqM, bits, train, 1)
		}
		for i, f := range feats {
			a := core.Attrs{ProductID: uint64(i + 1), URL: fmt.Sprintf("jfs://sweep/%d.jpg", i)}
			if _, _, err := s.Insert(a, f); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}

	// Queries follow the guardrail convention: an indexed image re-shot
	// with small jitter, not the stored row itself.
	qfeats := make([][]float32, queries)
	for q := range qfeats {
		base := feats[(q*499)%n]
		f := make([]float32, dim)
		for d := range f {
			f[d] = base[d] + float32(rng.NormFloat64()*0.05)
		}
		qfeats[q] = f
	}

	// Ground truth: the exact scan over the same probe set, so the sweep
	// isolates quantization loss from IVF probe loss. Two recall notions:
	// identity recall (the exact top-10's image ids) and tie-aware recall
	// (a hit counts if its exact re-ranked distance is within the true
	// 10th-nearest distance, so a returned neighbour exactly as close as
	// the "true" one still counts).
	exact := build(0, 0, 0)
	truthIDs := make([][]uint64, queries)
	truthRadius := make([]float32, queries)
	for q := 0; q < queries; q++ {
		req := &core.SearchRequest{Feature: qfeats[q], TopK: k, NProbe: nprobe, Category: -1}
		resp, err := exact.Search(req)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]uint64, 0, len(resp.Hits))
		var radius float32
		for _, h := range resp.Hits {
			ids = append(ids, uint64(h.Image.Local))
			if h.Dist > radius {
				radius = h.Dist
			}
		}
		truthIDs[q] = ids
		truthRadius[q] = radius
	}

	for _, bits := range []int{8, 4} {
		t.Logf("bits=%d  (RerankK = mul x k, k=%d, nprobe=%d, %d queries)", bits, k, nprobe, queries)
		for _, mul := range []int{1, 2, 5, 10, 20, 30, 50, 100} {
			s := build(m, bits, mul*k)
			var idHits, tieHits, want int
			start := time.Now()
			for q := 0; q < queries; q++ {
				req := &core.SearchRequest{Feature: qfeats[q], TopK: k, NProbe: nprobe, Category: -1}
				resp, err := s.Search(req)
				if err != nil {
					t.Fatal(err)
				}
				got := make(map[uint64]bool, len(resp.Hits))
				for _, h := range resp.Hits {
					got[uint64(h.Image.Local)] = true
					if h.Dist <= truthRadius[q]*(1+1e-6) {
						tieHits++
					}
				}
				for _, id := range truthIDs[q] {
					want++
					if got[id] {
						idHits++
					}
				}
			}
			mean := time.Since(start) / queries
			t.Logf("  mul=%-3d recall@10=%.4f  identity=%.4f  mean=%s",
				mul, float64(tieHits)/float64(want), float64(idHits)/float64(want), mean.Round(time.Microsecond))
		}
	}
}
