package index

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"jdvs/internal/core"
	"jdvs/internal/topk"
	"jdvs/internal/vecmath"
)

func benchShard(b *testing.B, n int) (*Shard, [][]float32) {
	b.Helper()
	const dim = 64
	rng := rand.New(rand.NewSource(7))
	train := make([]float32, 2_000*dim)
	for i := range train {
		train[i] = float32(rng.NormFloat64())
	}
	s := trainShard(b, Config{DefaultNProbe: 8}, 64, dim, train, 1)
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

// benchURLs returns the URLs benchShard gives its first n images.
func benchURLs(n int) []string {
	urls := make([]string, n)
	for i := range urls {
		urls[i] = fmt.Sprintf("jfs://bench/p%d.jpg", i)
	}
	return urls
}

// BenchmarkSearch measures the full per-partition query path: probe
// selection, list scans, distance computation, top-k and result assembly.
func BenchmarkSearch(b *testing.B) {
	for _, n := range []int{10_000, 50_000} {
		b.Run(fmt.Sprintf("images=%d", n), func(b *testing.B) {
			s, feats := benchShard(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := &core.SearchRequest{Feature: feats[i%len(feats)], TopK: 10, NProbe: 8, Category: -1}
				if _, err := s.Search(req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSearchWorkers compares the serial scan against the parallel
// intra-shard scan (§2.4 multi-thread searching) across probe widths and
// worker counts. Parallel wins over serial at nprobe ≥ 8 on multi-core;
// workers=1 is the baseline serial path.
func BenchmarkSearchWorkers(b *testing.B) {
	s, feats := benchShard(b, 50_000)
	for _, nprobe := range []int{8, 16, 32} {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("nprobe=%d/workers=%d", nprobe, workers), func(b *testing.B) {
				s.SetSearchWorkers(workers)
				defer s.SetSearchWorkers(0)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					req := &core.SearchRequest{Feature: feats[i%len(feats)], TopK: 10, NProbe: nprobe, Category: -1}
					if _, err := s.Search(req); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkADCScan pits the product-quantized scan paths against the
// exact float scan over the same corpus at the same probe count:
// path=exact reads a dim×4-byte feature row per candidate, bits=8 reads
// an M-byte code and sums M table lookups, bits=4 streams packed blocks
// through the fast-scan kernel at M/2 bytes per code. Every quantized
// variant exactly re-ranks its top RerankK. The corpus is sized so
// feature rows spill out of cache — the condition the ADC path exists
// for. Every row is one TopK-10 Search per op.
//
// shape=scan_uniform is one shard of the repo benchmark's scan_uniform
// workload (bench/workloads.go: ≈30k rows per shard, 64 lists, 8-bit codes
// with M=16, nprobe 48), bulk-loaded list-major as a full build leaves it,
// one TopK-10 Search per op. Its long probed lists are where the bounded
// 8-bit kernel abandons most codes once the over-fetch selector is full.
func BenchmarkADCScan(b *testing.B) {
	const n, dim, m = 100_000, 64, 16
	rng := rand.New(rand.NewSource(41))
	feats := clusteredFeatures(rng, n, dim, 64, 0.25)
	train := make([]float32, 0, 2000*dim)
	for i := 0; i < 2000; i++ {
		train = append(train, feats[i]...)
	}
	build := func(pqM, bits int) *Shard {
		s := trainShard(b, Config{DefaultNProbe: 8, SearchWorkers: 1}, 64, dim, train, 1)
		if pqM > 0 {
			trainPQ(b, s, pqM, bits, train, 1)
		}
		for i, f := range feats {
			a := core.Attrs{ProductID: uint64(i + 1), URL: fmt.Sprintf("jfs://adc/%d.jpg", i)}
			if _, _, err := s.Insert(a, f); err != nil {
				b.Fatal(err)
			}
		}
		return s
	}
	b.Run("path=exact", func(b *testing.B) {
		s := build(0, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req := &core.SearchRequest{Feature: feats[(i*37)%n], TopK: 10, NProbe: 8, Category: -1}
			if _, err := s.Search(req); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, bits := range []int{8, 4} {
		s := build(m, bits)
		b.Run(fmt.Sprintf("path=adc/bits=%d", bits), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := &core.SearchRequest{Feature: feats[(i*37)%n], TopK: 10, NProbe: 8, Category: -1}
				if _, err := s.Search(req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("shape=scan_uniform/bits=8", func(b *testing.B) {
		const rows, nprobe = 30_000, 48
		cfg := shardSpec{Config{DefaultNProbe: nprobe, SearchWorkers: 1}, dim, 64, m, 8}
		load := make([]Row, rows)
		for i := range load {
			load[i] = Row{Feature: feats[i], Attrs: core.Attrs{ProductID: uint64(i + 1), URL: fmt.Sprintf("jfs://adc/%d.jpg", i)}}
		}
		s := loadShard(b, cfg, train, bulkLoader(b, load))
		scanned := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req := &core.SearchRequest{Feature: feats[(i*37)%n], TopK: 10, NProbe: nprobe, Category: -1}
			resp, err := s.Search(req)
			if err != nil {
				b.Fatal(err)
			}
			scanned += resp.Scanned
		}
		b.ReportMetric(float64(scanned)/float64(b.N), "scanned/query")
	})
}

// filteredScanBaseline is the pre-pushdown admission strategy kept as the
// benchmark baseline: probe the same lists and decide every candidate with
// a validity-bit read plus a forward lookup, instead of one pre-built
// admission bitmap. sel and the probe buffers are caller-owned so the
// baseline pays no per-query allocations the real path doesn't.
func filteredScanBaseline(s *Shard, req *core.SearchRequest, probe []int, probeDist []float32, sel *topk.Selector) ([]int, []float32) {
	probe, probeDist = vecmath.TopCentroidsInto(probe, probeDist, req.Feature, s.codebook.Centroids, s.codebook.Dim, req.NProbe)
	sel.ResetK(req.TopK)
	for _, l := range probe {
		s.inv.Scan(l, func(id uint32) bool {
			if !s.valid.Get(id) {
				return true
			}
			sales, _, price, cat, ok := s.fwd.Numeric(id)
			if !ok {
				return true
			}
			if req.Category >= 0 && int32(cat) != req.Category {
				return true
			}
			if !req.MatchesAttrs(sales, price) {
				return true
			}
			row := s.feats.Row(id)
			if row == nil {
				return true
			}
			sel.Push(uint64(id), vecmath.L2Squared(req.Feature, row))
			return true
		})
	}
	sel.Sorted()
	return probe, probeDist
}

// BenchmarkFilteredScan pits filtered Search as served against the
// per-candidate-lookup baseline over one skewed corpus at every
// selectivity band. path=lookup scans the probed lists deciding each
// candidate with a validity read and a forward lookup. path=bitmap is
// Search: the 0.1–10% bands admit fewer rows than the probe would score
// and take the exact plan, the 100% band — a price floor every image
// passes, so the filtered machinery runs without rejecting anything —
// scans the same lists as the baseline with bitmap admission.
func BenchmarkFilteredScan(b *testing.B) {
	const n, dim, nlists, nprobe = 50_000, 64, 64, 8
	rng := rand.New(rand.NewSource(43))
	feats := clusteredFeatures(rng, n, dim, 48, 0.25)
	train := make([]float32, 0, 2000*dim)
	for i := 0; i < 2000; i++ {
		train = append(train, feats[i]...)
	}
	s := trainShard(b, Config{DefaultNProbe: nprobe, SearchWorkers: 1}, nlists, dim, train, 1)
	for i, f := range feats {
		a := filterAttrs(i, n)
		if _, _, err := s.Insert(a, f); err != nil {
			b.Fatal(err)
		}
	}
	bands := []struct {
		name string
		req  core.SearchRequest
	}{
		{"selectivity=0.1%", core.SearchRequest{Category: 1}},
		{"selectivity=1%", core.SearchRequest{Category: 2}},
		{"selectivity=10%", core.SearchRequest{Category: 3}},
		{"selectivity=100%", core.SearchRequest{Category: -1, MinPriceCents: 1}},
	}
	for _, band := range bands {
		req := band.req
		req.TopK = 10
		req.NProbe = nprobe
		b.Run(band.name+"/path=bitmap", func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := req
				r.Feature = feats[(i*37)%n]
				if _, err := s.Search(&r); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(band.name+"/path=lookup", func(b *testing.B) {
			sel := topk.New(req.TopK)
			var probe []int
			var probeDist []float32
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := req
				r.Feature = feats[(i*37)%n]
				probe, probeDist = filteredScanBaseline(s, &r, probe, probeDist, sel)
			}
		})
	}
}

// BenchmarkInsertFresh measures indexing a brand-new image (forward
// append + feature row + cluster assign + inverted append + bitmap).
func BenchmarkInsertFresh(b *testing.B) {
	s, _ := benchShard(b, 1_000)
	rng := rand.New(rand.NewSource(9))
	const dim = 64
	feats := make([][]float32, 4096)
	for i := range feats {
		f := make([]float32, dim)
		for d := range f {
			f[d] = float32(rng.NormFloat64())
		}
		feats[i] = f
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := core.Attrs{ProductID: uint64(10_000 + i), URL: fmt.Sprintf("jfs://fresh/p%d.jpg", i)}
		if _, _, err := s.Insert(a, feats[i%len(feats)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInsertReuse measures the re-listing path (§2.3): bitmap flip
// plus attribute refresh, no structural work.
func BenchmarkInsertReuse(b *testing.B) {
	s, _ := benchShard(b, 10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := core.Attrs{ProductID: uint64(i%10_000 + 1), URL: fmt.Sprintf("jfs://bench/p%d.jpg", i%10_000)}
		if _, reused, err := s.Insert(a, nil); err != nil || !reused {
			b.Fatal("reuse path broke")
		}
	}
}

// BenchmarkRemoveImageURL measures deletion as indexer.Apply issues it: one
// URL lookup and one bitmap flip. Odd iterations re-list the image so every
// removal flips a set bit.
func BenchmarkRemoveImageURL(b *testing.B) {
	s, _ := benchShard(b, 10_000)
	urls := benchURLs(10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % 10_000
		if i%2 == 0 {
			_, _ = s.RemoveImageURL(urls[j])
		} else {
			_, _, _ = s.Insert(core.Attrs{ProductID: uint64(j + 1), URL: urls[j]}, nil)
		}
	}
}

// BenchmarkUpdateAttrsURL measures the Fig. 7 numeric update of one image
// as indexer.Apply issues it.
func BenchmarkUpdateAttrsURL(b *testing.B) {
	s, _ := benchShard(b, 10_000)
	urls := benchURLs(10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.UpdateAttrsURL(urls[i%10_000], uint32(i), 50, 999, uint16(i%8)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMixedRealtimeStages times the two plans of a filtered query on
// the same requests, at the shape of the repo benchmark's mixed_realtime
// workload (bench/workloads.go: ≈25k rows per shard, dim 64, 64 lists,
// 4-bit codes with M=16, nprobe 8, TopK 30 as the blender asks).
// exact-ns/query is the exact plan, scoring every admitted row against its
// raw row; scan-ns/query is the list plan's ADC traversal that selects the
// 900-candidate over-fetch and rerank-ns/query its exact re-rank. ns/op
// covers both plans plus what each needs first (admission bitmap; probe
// selection and lookup table). admitted/query is the rows the exact plan
// scored and limit-rows the count up to which Search picks it
// (exactPlanLimit), so each selectivity sits on a known side of the
// crossover. Selectivity is a price band of that share of the uniform
// price range, one cached predicate bitmap per band. The two layouts hold
// the same rows: list-major is what a full build leaves (BulkLoad),
// url-order what row-by-row inserts leave — the real-time tail between two
// full builds. The scan reads codes list by list either way; the re-rank's
// and the exact plan's row reads see the difference.
func BenchmarkMixedRealtimeStages(b *testing.B) {
	const n, dim, nlists, nprobe, categories, queries = 25_000, 64, 64, 8, 12, 1024
	const minPrice, priceRange = 100, 9900
	rng := rand.New(rand.NewSource(53))
	// Eight visual sub-clusters per category: a category's images share a
	// few lists, as catalog photos of one kind of product do.
	centres := categories * 8
	centre := make([]float32, centres*dim)
	for i := range centre {
		centre[i] = float32(rng.NormFloat64() * 4)
	}
	rows := make([]Row, n)
	var train []float32
	for i := range rows {
		c := rng.Intn(centres)
		f := make([]float32, dim)
		for d := range f {
			f[d] = centre[c*dim+d] + float32(rng.NormFloat64()*0.25)
		}
		rows[i] = Row{Feature: f, Attrs: core.Attrs{
			ProductID:  uint64(i/2 + 1),
			URL:        fmt.Sprintf("jfs://mixed/%d.jpg", i),
			Category:   uint16(c % categories),
			PriceCents: uint32(minPrice + (i*37)%priceRange),
		}}
		if i < 2000 {
			train = append(train, f...)
		}
	}
	qs := make([][]float32, queries)
	for i := range qs {
		r := &rows[rng.Intn(n)]
		qs[i] = make([]float32, dim)
		for d := range qs[i] {
			qs[i][d] = r.Feature[d] + float32(rng.NormFloat64()*0.05)
		}
	}
	layouts := []struct {
		name string
		load func(*Shard)
	}{
		{"list-major", bulkLoader(b, rows)},
		{"url-order", insertLoader(b, rows)},
	}
	for _, layout := range layouts {
		b.Run("layout="+layout.name, func(b *testing.B) {
			cfg := shardSpec{Config{DefaultNProbe: nprobe, SearchWorkers: 1}, dim, nlists, 16, 4}
			s := loadShard(b, cfg, train, layout.load)
			ps := s.pqState.Load()
			for _, pct := range []int{1, 10, 50} {
				b.Run(fmt.Sprintf("selectivity=%d%%", pct), func(b *testing.B) {
					reqs := make([]*core.SearchRequest, queries)
					for i := range reqs {
						reqs[i] = &core.SearchRequest{
							Feature: qs[i], TopK: 30, NProbe: nprobe, Category: -1,
							MinPriceCents: minPrice, MaxPriceCents: uint32(minPrice + pct*priceRange/100 - 1),
						}
					}
					sc := new(searchScratch)
					sc.ensureIDBufs(1)
					var exact, scan, rerank time.Duration
					admitted, exactHits, listHits := 0, 0, 0
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						req := reqs[i%queries]
						q := query{sc: sc, req: req, k: req.TopK}
						q.adm = s.buildAdmission(req, sc)
						t0 := time.Now()
						items, scored := s.scoreAdmitted(&q)
						exact += time.Since(t0)
						admitted += scored
						exactHits += len(items)
						// The list plan's preparation, as prepare does it.
						sc.probe, sc.probeDist = vecmath.TopCentroidsInto(
							sc.probe, sc.probeDist, req.Feature, s.codebook.Centroids, dim, nprobe)
						sc.lut, _ = ps.cb.BuildLUT(req.Feature, sc.lut)
						q.rerankK = s.rerankDepth(q.k, ps.cb.Bits)
						sel := sc.selectors(1, q.rerankK)[0]
						t1 := time.Now()
						s.scanADC(ps, &q, sel, 0, 1, &sc.ids[0])
						t2 := time.Now()
						items = s.rerankExact(req, q.k, sel.Items(), sc, &q.adm)
						rerank += time.Since(t2)
						scan += t2.Sub(t1)
						listHits += len(items)
					}
					b.StopTimer()
					if exactHits < b.N || listHits < b.N {
						b.Fatalf("%d exact-plan and %d list-plan hits over %d queries", exactHits, listHits, b.N)
					}
					b.ReportMetric(float64(exact.Nanoseconds())/float64(b.N), "exact-ns/query")
					b.ReportMetric(float64(scan.Nanoseconds())/float64(b.N), "scan-ns/query")
					b.ReportMetric(float64(rerank.Nanoseconds())/float64(b.N), "rerank-ns/query")
					b.ReportMetric(float64(admitted)/float64(b.N), "admitted/query")
					b.ReportMetric(float64(s.exactPlanLimit(nprobe, 30)), "limit-rows")
				})
			}
		})
	}
}
