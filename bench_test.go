// Ablation benchmarks of the paper's design choices, each isolating one
// mechanism against the alternative the design avoids. Run with:
//
//	go test -run '^$' -bench=. -benchmem .
//
// The paper's figures are regenerated by cmd/jdvs-bench (internal/experiments);
// the repo's gated end-to-end numbers are BENCHMARK.json + bench/.
package jdvs_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"jdvs/internal/catalog"
	"jdvs/internal/cnn"
	"jdvs/internal/core"
	"jdvs/internal/imagestore"
	"jdvs/internal/index"
	"jdvs/internal/inverted"
	"jdvs/internal/kmeans"
)

// benchShard builds a standalone trained shard with n indexed images.
func benchShard(b *testing.B, n int) (*index.Shard, [][]float32) {
	b.Helper()
	const dim = 64
	s, err := index.New(index.Config{DefaultNProbe: 8})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	train := make([]float32, 20_000*dim/10)
	for i := range train {
		train[i] = float32(rng.NormFloat64())
	}
	cb, err := kmeans.Train(kmeans.Config{K: 64, Dim: dim, Seed: 1}, train)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.SetCodebook(cb); err != nil {
		b.Fatal(err)
	}
	feats := make([][]float32, n)
	for i := 0; i < n; i++ {
		f := make([]float32, dim)
		for d := range f {
			f[d] = float32(rng.NormFloat64())
		}
		feats[i] = f
		a := core.Attrs{
			ProductID: uint64(i + 1),
			URL:       fmt.Sprintf("jfs://bench/p%d.jpg", i),
			Category:  uint16(i % 8),
		}
		if _, _, err := s.Insert(a, f); err != nil {
			b.Fatal(err)
		}
	}
	return s, feats
}

// BenchmarkAblation_FeatureReuse compares the two insertion paths of
// Fig. 6: re-adding a known image (bitmap flip, zero extraction) versus
// indexing a brand-new image including CNN feature extraction — the
// optimisation behind Table 1's 513M/521M reuse ratio.
func BenchmarkAblation_FeatureReuse(b *testing.B) {
	b.Run("reuse", func(b *testing.B) {
		s, _ := benchShard(b, 10_000)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a := core.Attrs{ProductID: uint64(i%10_000 + 1), URL: fmt.Sprintf("jfs://bench/p%d.jpg", i%10_000)}
			if _, reused, err := s.Insert(a, nil); err != nil || !reused {
				b.Fatalf("reuse path broke: %v %v", reused, err)
			}
		}
	})
	b.Run("extract", func(b *testing.B) {
		s, _ := benchShard(b, 10_000)
		extractor := cnn.New(cnn.Config{Dim: 64, Seed: 3, WorkFactor: 20})
		images, err := imagestore.New()
		if err != nil {
			b.Fatal(err)
		}
		defer images.Close()
		cat, err := catalog.Generate(catalog.Config{Products: 1, Seed: 4}, images)
		if err != nil {
			b.Fatal(err)
		}
		blob, err := images.Get(cat.Products[0].ImageURLs[0])
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f, err := extractor.ExtractBytes(blob)
			if err != nil {
				b.Fatal(err)
			}
			a := core.Attrs{ProductID: uint64(100_000 + i), URL: fmt.Sprintf("jfs://fresh/p%d.jpg", i)}
			if _, _, err := s.Insert(a, f); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_Deletion compares the paper's bitmap deletion (§2.3:
// flip one bit) against physically removing the ID from its inverted list
// (scan + splice under a lock), the approach the design avoids.
func BenchmarkAblation_Deletion(b *testing.B) {
	const n = 100_000
	b.Run("bitmap", func(b *testing.B) {
		s, _ := benchShard(b, 10_000)
		urls := make([]string, 10_000)
		for i := range urls {
			urls[i] = fmt.Sprintf("jfs://bench/p%d.jpg", i)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%2 == 0 {
				_, _ = s.RemoveImageURL(urls[i%10_000])
			} else {
				_, _, _ = s.Insert(core.Attrs{ProductID: uint64(i%10_000 + 1), URL: urls[i%10_000]}, nil)
			}
		}
	})
	b.Run("physical", func(b *testing.B) {
		// Mutex-guarded slice standing in for an eagerly-compacted list.
		var mu sync.Mutex
		list := make([]uint32, n)
		for i := range list {
			list[i] = uint32(i)
		}
		rng := rand.New(rand.NewSource(5))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id := uint32(rng.Intn(n))
			mu.Lock()
			for j, v := range list {
				if v == id {
					list = append(list[:j], list[j+1:]...)
					break
				}
			}
			list = append(list, id) // keep size stable for steady state
			mu.Unlock()
		}
	})
}

// BenchmarkAblation_LockFree compares the paper's lock-free inverted list
// (atomic last-position publication, Figs. 5/9) against a mutex-guarded
// list under the production access pattern: parallel search scans racing a
// single real-time appender. Both variants scan the same number of
// elements through the same per-element callback, so locking is the only
// variable: the mutex serialises every scan against every other scan and
// against the appender, while the lock-free list lets them all proceed.
func BenchmarkAblation_LockFree(b *testing.B) {
	const preload = 100_000
	appendTarget := uint32(2 * preload)
	b.Run("lockfree", func(b *testing.B) {
		ix := inverted.New(1)
		for i := uint32(0); i < preload; i++ {
			if err := ix.Append(0, i); err != nil {
				b.Fatal(err)
			}
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { // real-time appender: rides alongside the scans
			defer wg.Done()
			for i := uint32(preload); i < appendTarget; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_ = ix.Append(0, i)
			}
		}()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				var sum uint64
				n := 0
				ix.Scan(0, func(id uint32) bool {
					sum += uint64(id)
					n++
					return n < preload // fixed work per op
				})
				if sum == 0 {
					b.Error("empty scan")
				}
			}
		})
		b.StopTimer()
		close(stop)
		wg.Wait()
	})
	b.Run("mutex", func(b *testing.B) {
		var mu sync.Mutex
		list := make([]uint32, preload, 2*preload)
		for i := range list {
			list[i] = uint32(i)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { // real-time appender: rides alongside the scans
			defer wg.Done()
			for i := uint32(preload); i < appendTarget; i++ {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				list = append(list, i)
				mu.Unlock()
			}
		}()
		scan := func(fn func(uint32) bool) {
			mu.Lock()
			defer mu.Unlock()
			for _, id := range list {
				if !fn(id) {
					return
				}
			}
		}
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				var sum uint64
				n := 0
				scan(func(id uint32) bool {
					sum += uint64(id)
					n++
					return n < preload // fixed work per op
				})
				if sum == 0 {
					b.Error("empty scan")
				}
			}
		})
		b.StopTimer()
		close(stop)
		wg.Wait()
	})
}

// BenchmarkAblation_NProbe sweeps the probe width: latency grows with
// nprobe while recall improves — the IVF trade-off behind the searcher's
// sub-second guarantee.
func BenchmarkAblation_NProbe(b *testing.B) {
	s, feats := benchShard(b, 20_000)
	for _, nprobe := range []int{1, 2, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("nprobe=%d", nprobe), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				req := &core.SearchRequest{
					Feature:  feats[i%len(feats)],
					TopK:     10,
					NProbe:   nprobe,
					Category: -1,
				}
				if _, err := s.Search(req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_SearchWorkers sweeps the intra-shard scan parallelism
// (index.Config.SearchWorkers, the paper's §2.4 multi-thread searching)
// against the serial baseline at the probe widths where fan-out pays off.
func BenchmarkAblation_SearchWorkers(b *testing.B) {
	s, feats := benchShard(b, 50_000)
	for _, nprobe := range []int{8, 32} {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("nprobe=%d/workers=%d", nprobe, workers), func(b *testing.B) {
				s.SetSearchWorkers(workers)
				defer s.SetSearchWorkers(0)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					req := &core.SearchRequest{
						Feature:  feats[i%len(feats)],
						TopK:     10,
						NProbe:   nprobe,
						Category: -1,
					}
					if _, err := s.Search(req); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAblation_Forward compares the paper's atomic fixed-field
// attribute update (Fig. 7, no lock on the read path) against an
// RWMutex-guarded record table under concurrent readers.
func BenchmarkAblation_Forward(b *testing.B) {
	const n = 100_000
	b.Run("atomic", func(b *testing.B) {
		s, _ := benchShard(b, 10_000)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ { // background readers
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(r)))
				for {
					select {
					case <-stop:
						return
					default:
					}
					_, _ = s.Attrs(uint32(rng.Intn(10_000)))
				}
			}(r)
		}
		urls := make([]string, 1024)
		for i := range urls {
			urls[i] = fmt.Sprintf("jfs://bench/p%d.jpg", i)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.UpdateAttrsURL(urls[i%len(urls)], uint32(i), 1, 2, uint16(i%8)); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		close(stop)
		wg.Wait()
	})
	b.Run("rwmutex", func(b *testing.B) {
		type rec struct{ sales, praise, price uint32 }
		var mu sync.RWMutex
		recs := make([]rec, n)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(r)))
				for {
					select {
					case <-stop:
						return
					default:
					}
					mu.RLock()
					_ = recs[rng.Intn(n)]
					mu.RUnlock()
				}
			}(r)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mu.Lock()
			recs[i%n] = rec{uint32(i), 1, 2}
			mu.Unlock()
		}
		b.StopTimer()
		close(stop)
		wg.Wait()
	})
}
