//go:build linux || darwin

package index

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"jdvs/internal/core"
)

// BenchmarkFeatureStoreRerank measures the latency cost of tiering raw
// feature rows onto mmap. Every
// variant runs the full ADC query path (probe → code scan → exact re-rank
// over RerankK raw rows) at the ADC benchmark's operating point; only
// where the re-ranked rows live differs:
//
//   - store=ram: heap chunks (the baseline BenchmarkADCScan measures).
//   - store=mmap/pages=warm: spill-file rows resident in the page cache —
//     the steady state, which must stay within 15% of ram.
//   - store=mmap/pages=cold: the store's pages are dropped before every
//     query (MADV_DONTNEED), so each re-rank row faults back in — the
//     worst case a memory-pressured shard pays.
//
// It also reports featheap-bytes: the Go-heap cost of feature storage per
// variant — the capacity axis of the same trade.
func BenchmarkFeatureStoreRerank(b *testing.B) {
	const n, dim, m = 100_000, 64, 16
	rng := rand.New(rand.NewSource(41))
	feats := clusteredFeatures(rng, n, dim, 64, 0.25)
	train := make([]float32, 0, 2000*dim)
	for i := 0; i < 2000; i++ {
		train = append(train, feats[i]...)
	}
	build := func(store string) *Shard {
		s, err := New(Config{
			Dim: dim, NLists: 64, DefaultNProbe: 8, SearchWorkers: 1,
			PQSubvectors: m, FeatureStore: store, SpillDir: b.TempDir(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Train(train, 1); err != nil {
			b.Fatal(err)
		}
		if err := s.TrainPQ(train, 1); err != nil {
			b.Fatal(err)
		}
		for i, f := range feats {
			a := core.Attrs{ProductID: uint64(i + 1), URL: fmt.Sprintf("jfs://tier/%d.jpg", i)}
			if _, _, err := s.Insert(a, f); err != nil {
				b.Fatal(err)
			}
		}
		return s
	}
	shards := map[string]*Shard{
		FeatureStoreRAM:  build(FeatureStoreRAM),
		FeatureStoreMmap: build(FeatureStoreMmap),
	}
	defer shards[FeatureStoreRAM].Close()
	defer shards[FeatureStoreMmap].Close()

	run := func(b *testing.B, s *Shard, dropEach bool) {
		b.Helper()
		var mmapStore *mmapMat
		if dropEach {
			mmapStore = s.feats.(*mmapMat)
		}
		b.ReportAllocs()
		b.ReportMetric(float64(s.Stats().FeatureHeapBytes), "featheap-bytes")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if dropEach {
				if err := mmapStore.dropPages(); err != nil {
					b.Fatal(err)
				}
			}
			req := &core.SearchRequest{Feature: feats[(i*37)%n], TopK: 10, NProbe: 8, Category: -1}
			if _, err := s.Search(req); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("store=ram", func(b *testing.B) { run(b, shards[FeatureStoreRAM], false) })
	b.Run("store=mmap/pages=warm", func(b *testing.B) { run(b, shards[FeatureStoreMmap], false) })
	b.Run("store=mmap/pages=cold", func(b *testing.B) { run(b, shards[FeatureStoreMmap], true) })
	runtime.KeepAlive(shards)
}
