package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"jdvs/internal/core"
	"jdvs/internal/pq"
)

// buildPQBitsPair builds two shards over the identical corpus: one exact
// reference, one product-quantized at the requested code bit width.
func buildPQBitsPair(t testing.TB, n, dim, nlists, m, bits int) (exact, quantized *Shard, feats [][]float32) {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	feats = clusteredFeatures(rng, n, dim, 24, 0.25)
	train := make([]float32, 0, min(n, 2000)*dim)
	for i := 0; i < min(n, 2000); i++ {
		train = append(train, feats[i]...)
	}
	mk := func(pqM int) *Shard {
		s := trainShard(t, Config{DefaultNProbe: 8, SearchWorkers: 1}, nlists, dim, train, 5)
		if pqM > 0 {
			trainPQ(t, s, pqM, bits, train, 5)
		}
		for i, f := range feats {
			a := core.Attrs{ProductID: uint64(i + 1), URL: fmt.Sprintf("jfs://pq4/%d.jpg", i), Category: uint16(i % 4)}
			if _, _, err := s.Insert(a, f); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	return mk(0), mk(m), feats
}

// TestPQRecallGuardrail4Bit is the accuracy gate on the 4-bit fast-scan
// path: recall@10 of the blocked-kernel scan + exact re-rank against the
// exact scan at the same probe count must stay at least 0.95, matching
// the 8-bit guardrail. The 16-centroid subquantizers are coarser, so this
// leans on the deeper bit-width default re-rank (defaultRerankMul4).
func TestPQRecallGuardrail4Bit(t *testing.T) {
	const n, dim, queries = 6000, 64, 60
	exact, quant, feats := buildPQBitsPair(t, n, dim, 32, 16, 4)
	if !quant.PQEnabled() {
		t.Fatal("quantized shard did not enable PQ")
	}
	if st := quant.Stats(); st.PQBits != 4 {
		t.Fatalf("Stats.PQBits = %d, want 4", st.PQBits)
	}
	rng := rand.New(rand.NewSource(77))
	var hit, want int
	for qi := 0; qi < queries; qi++ {
		base := feats[rng.Intn(n)]
		q := make([]float32, dim)
		for d := range q {
			q[d] = base[d] + float32(rng.NormFloat64()*0.05)
		}
		req := &core.SearchRequest{Feature: q, TopK: 10, NProbe: 8, Category: -1}
		re, err := exact.Search(req)
		if err != nil {
			t.Fatal(err)
		}
		rq, err := quant.Search(req)
		if err != nil {
			t.Fatal(err)
		}
		truth := make(map[uint32]bool, len(re.Hits))
		for _, h := range re.Hits {
			truth[h.Image.Local] = true
		}
		want += len(re.Hits)
		for _, h := range rq.Hits {
			if truth[h.Image.Local] {
				hit++
			}
		}
	}
	recall := float64(hit) / float64(want)
	t.Logf("4-bit fast-scan recall@10 over %d queries: %.4f", queries, recall)
	if recall < 0.95 {
		t.Fatalf("recall@10 = %.4f, want >= 0.95", recall)
	}
}

// TestPQ4SerialParallelEquivalence: the striped 4-bit blocked scan must
// return exactly the serial scan's results — the block kernel, the tail
// scalar path and the threshold skip may not depend on worker count.
func TestPQ4SerialParallelEquivalence(t *testing.T) {
	const n, dim = 3000, 32
	_, quant, feats := buildPQBitsPair(t, n, dim, 16, 8, 4)
	rng := rand.New(rand.NewSource(5))
	for qi := 0; qi < 20; qi++ {
		q := feats[rng.Intn(n)]
		req := &core.SearchRequest{Feature: q, TopK: 15, NProbe: 6, Category: -1}
		quant.SetSearchWorkers(1)
		serial, err := quant.Search(req)
		if err != nil {
			t.Fatal(err)
		}
		quant.SetSearchWorkers(4)
		parallel, err := quant.Search(req)
		if err != nil {
			t.Fatal(err)
		}
		quant.SetSearchWorkers(0)
		if len(serial.Hits) != len(parallel.Hits) {
			t.Fatalf("query %d: serial %d hits, parallel %d", qi, len(serial.Hits), len(parallel.Hits))
		}
		for i := range serial.Hits {
			if serial.Hits[i].Image != parallel.Hits[i].Image || serial.Hits[i].Dist != parallel.Hits[i].Dist {
				t.Fatalf("query %d hit %d: serial %+v, parallel %+v", qi, i, serial.Hits[i], parallel.Hits[i])
			}
		}
	}
}

// TestPQInsertLockstep: inserts after a quantizer is installed must append
// codes to the owning list's block storage in slot lockstep with the
// inverted list — at both code widths — and the fresh images must be
// findable through the blocked scan (including from a partially filled
// tail block).
func TestPQInsertLockstep(t *testing.T) {
	for _, bits := range []int{8, 4} {
		t.Run(fmt.Sprintf("bits=%d", bits), func(t *testing.T) {
			const n, dim = 1000, 32
			_, quant, _ := buildPQBitsPair(t, n, dim, 16, 8, bits)
			rng := rand.New(rand.NewSource(9))
			fresh := clusteredFeatures(rng, 50, dim, 3, 0.1)
			for i, f := range fresh {
				url := fmt.Sprintf("jfs://pq-late/%d.jpg", i)
				id, reused, err := quant.Insert(core.Attrs{ProductID: uint64(9000 + i), URL: url}, f)
				if err != nil || reused {
					t.Fatalf("insert %d: id=%d reused=%v err=%v", i, id, reused, err)
				}
				resp, err := quant.Search(&core.SearchRequest{Feature: f, TopK: 1, NProbe: quant.codebook.K, Category: -1})
				if err != nil {
					t.Fatal(err)
				}
				if len(resp.Hits) != 1 || resp.Hits[0].Image.Local != id {
					t.Fatalf("freshly inserted image %d not the nearest to its own feature: %+v", id, resp.Hits)
				}
			}
			st := quant.Stats()
			if st.PQCodes != st.Images {
				t.Fatalf("codes %d out of lockstep with images %d", st.PQCodes, st.Images)
			}
			// Every list's code count matches its inverted length (slot alignment).
			ps := quant.pqState.Load()
			for l, cb := range ps.lists {
				if int(cb.published()) != quant.inv.ListLen(l) {
					t.Fatalf("list %d: %d codes, %d inverted entries", l, cb.published(), quant.inv.ListLen(l))
				}
			}
		})
	}
}

// TestPQInsertEncodesWithoutAllocating: a real-time insert encodes its PQ
// code into a stack buffer, so a fresh insert into a quantized shard
// allocates no more than one into an exact shard. Chunk growth is
// amortised over the runs and rounds away.
func TestPQInsertEncodesWithoutAllocating(t *testing.T) {
	const n, dim = 1000, 32
	exact, quant, _ := buildPQBitsPair(t, n, dim, 16, 8, 8)
	fresh := clusteredFeatures(rand.New(rand.NewSource(11)), 201, dim, 3, 0.1)
	urls := make([]string, len(fresh))
	for i := range urls {
		urls[i] = fmt.Sprintf("jfs://pq-alloc/%d.jpg", i)
	}
	allocs := func(s *Shard) float64 {
		i := 0
		return testing.AllocsPerRun(len(fresh)-1, func() {
			if _, _, err := s.Insert(core.Attrs{ProductID: uint64(9000 + i), URL: urls[i]}, fresh[i]); err != nil {
				t.Fatal(err)
			}
			i++
		})
	}
	if e, q := allocs(exact), allocs(quant); q > e {
		t.Fatalf("fresh insert allocates %v times with PQ, %v without", q, e)
	}
}

// TestPQ4CodeMemoryHalved: the point of 4-bit codes is half the code
// memory per image. Chunk rounding costs a little, so gate at 0.6× the
// 8-bit heap rather than exactly 0.5×.
func TestPQ4CodeMemoryHalved(t *testing.T) {
	const n, dim, nlists, m = 20000, 32, 16, 8
	_, quant8, _ := buildPQBitsPair(t, n, dim, nlists, m, 8)
	_, quant4, _ := buildPQBitsPair(t, n, dim, nlists, m, 4)
	st8, st4 := quant8.Stats(), quant4.Stats()
	if st8.PQCodeBytes <= 0 || st4.PQCodeBytes <= 0 {
		t.Fatalf("code heap not reported: 8-bit %d, 4-bit %d", st8.PQCodeBytes, st4.PQCodeBytes)
	}
	t.Logf("code heap: 8-bit %d B, 4-bit %d B (%.2fx)", st8.PQCodeBytes, st4.PQCodeBytes,
		float64(st4.PQCodeBytes)/float64(st8.PQCodeBytes))
	if float64(st4.PQCodeBytes) > 0.6*float64(st8.PQCodeBytes) {
		t.Fatalf("4-bit code heap %d B is not ~half the 8-bit %d B", st4.PQCodeBytes, st8.PQCodeBytes)
	}
}

// TestSnapshotRoundTripPQ: a quantized shard's snapshot must round-trip
// the quantizer, the covered offset and the codes — through the portable
// per-code wire format back into blocked storage, at both code widths —
// with slot alignment validated and identical results.
func TestSnapshotRoundTripPQ(t *testing.T) {
	for _, bits := range []int{8, 4} {
		t.Run(fmt.Sprintf("bits=%d", bits), func(t *testing.T) {
			const n, dim = 1500, 32
			_, quant, feats := buildPQBitsPair(t, n, dim, 16, 8, bits)
			quant.SetCoveredOffset(4242)

			var buf bytes.Buffer
			if err := quant.WriteSnapshot(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := New(quant.Config())
			if err != nil {
				t.Fatal(err)
			}
			if err := loaded.LoadSnapshot(&buf); err != nil {
				t.Fatal(err)
			}
			if !loaded.PQEnabled() {
				t.Fatal("PQ state lost in snapshot round trip")
			}
			if off := loaded.CoveredOffset(); off != 4242 {
				t.Fatalf("covered offset %d, want 4242", off)
			}
			st, wt := loaded.Stats(), quant.Stats()
			if st.PQBits != bits {
				t.Fatalf("round trip landed on %d-bit path, want %d", st.PQBits, bits)
			}
			if st.PQCodes != wt.PQCodes || st.Images != wt.Images {
				t.Fatalf("round trip stats %+v vs %+v", st, wt)
			}
			for qi := 0; qi < 10; qi++ {
				req := &core.SearchRequest{Feature: feats[qi*7], TopK: 8, NProbe: 8, Category: -1}
				want, err := quant.Search(req)
				if err != nil {
					t.Fatal(err)
				}
				got, err := loaded.Search(req)
				if err != nil {
					t.Fatal(err)
				}
				if len(want.Hits) != len(got.Hits) {
					t.Fatalf("query %d: %d hits vs %d", qi, len(got.Hits), len(want.Hits))
				}
				for i := range want.Hits {
					if want.Hits[i].Image != got.Hits[i].Image || want.Hits[i].Dist != got.Hits[i].Dist {
						t.Fatalf("query %d hit %d: %+v vs %+v", qi, i, got.Hits[i], want.Hits[i])
					}
				}
			}
			// And the loaded replica keeps accepting real-time inserts in
			// slot lockstep: the fresh image must surface through the
			// blocked scan. (A near-duplicate of feats[0] can tie with the
			// original inside the coarse 4-bit ADC ranking, so ask for a
			// page rather than the single nearest.)
			f := make([]float32, dim)
			for d, v := range feats[0] {
				f[d] = v + 0.01
			}
			id, _, err := loaded.Insert(core.Attrs{ProductID: 424242, URL: "jfs://pq-rt/0.jpg"}, f)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := loaded.Search(&core.SearchRequest{Feature: f, TopK: 10, NProbe: loaded.codebook.K, Category: -1})
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, h := range resp.Hits {
				found = found || h.Image.Local == id
			}
			if !found {
				t.Fatalf("post-load insert %d not findable: %+v", id, resp.Hits)
			}
			if st := loaded.Stats(); st.PQCodes != st.Images {
				t.Fatalf("post-load insert: codes %d out of lockstep with images %d", st.PQCodes, st.Images)
			}
		})
	}
}

// TestConfigPQBitsValidation: a shard installs 8-bit and 4-bit product
// quantizers (a zero width trains as 8) and refuses a codebook of any
// other width, or a 4-bit one with an odd subquantizer count, whose codes
// could not pack two subquantizers per byte.
func TestConfigPQBitsValidation(t *testing.T) {
	bad := []*pq.Codebook{
		{Dim: 64, M: 16, SubDim: 4, Bits: 5, Centroids: make([]float32, 16*pq.NCentroids*4)},
		{Dim: 66, M: 11, SubDim: 6, Bits: 4, Centroids: make([]float32, 11*16*6)},
	}
	for _, cb := range bad {
		s := shapedShard(t, Config{}, 4, cb.Dim)
		if err := s.SetPQCodebook(cb); err == nil {
			t.Fatalf("codebook Bits %d M %d accepted", cb.Bits, cb.M)
		}
	}
	rng := rand.New(rand.NewSource(9))
	train := make([]float32, 64*300)
	for i := range train {
		train[i] = rng.Float32()
	}
	for _, c := range []struct{ bits, want int }{{0, 8}, {8, 8}, {4, 4}} {
		s := shapedShard(t, Config{}, 4, 64)
		trainPQ(t, s, 16, c.bits, train, 1)
		if got := s.Stats().PQBits; got != c.want {
			t.Fatalf("bits %d: installed PQBits = %d, want %d", c.bits, got, c.want)
		}
	}
}

// TestConcurrentADCSearchDuringInserts: the blocked ADC scan, at both code
// widths and over plain and filtered request shapes, is lock-free against
// the real-time writer. Full blocks go through the block kernel; the
// partially filled tail block is read only up to the published slot (the
// row prefix at 8 bits, the published slots' lane bytes at 4),
// byte-disjoint from the writer's unpublished-slot writes, which is
// exactly what the race detector checks here.
func TestConcurrentADCSearchDuringInserts(t *testing.T) {
	for _, bits := range []int{8, 4} {
		t.Run(fmt.Sprintf("bits=%d", bits), func(t *testing.T) {
			const n, dim = 2000, 32
			_, quant, feats := buildPQBitsPair(t, n, dim, 16, 8, bits)
			done := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() { // the single real-time writer
				defer wg.Done()
				defer close(done)
				wrng := rand.New(rand.NewSource(99))
				fresh := clusteredFeatures(wrng, 1500, dim, 24, 0.25)
				// Half row by row, half as one bulk load: both publish
				// through appendRow under the same scans.
				var bulk []Row
				for i, f := range fresh {
					a := core.Attrs{ProductID: uint64(50000 + i), URL: fmt.Sprintf("jfs://pq-rt/%d.jpg", i), Category: uint16(i % 4)}
					if i >= len(fresh)/2 {
						bulk = append(bulk, Row{Attrs: a, Feature: f})
						continue
					}
					if _, _, err := quant.Insert(a, f); err != nil {
						t.Errorf("rt insert: %v", err)
						return
					}
				}
				if err := quant.BulkLoad(bulk); err != nil {
					t.Errorf("bulk load: %v", err)
				}
			}()
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					qrng := rand.New(rand.NewSource(int64(w)))
					for {
						select {
						case <-done:
							return
						default:
						}
						if w%2 == 0 {
							q := feats[qrng.Intn(len(feats))]
							if _, err := quant.Search(&core.SearchRequest{Feature: q, TopK: 10, NProbe: 8, Category: -1}); err != nil {
								t.Errorf("search during inserts: %v", err)
								return
							}
						} else {
							for _, req := range batchRequests(qrng, feats, 4) {
								if _, err := quant.Search(req); err != nil {
									t.Errorf("mixed-shape search during inserts: %v", err)
									return
								}
							}
						}
					}
				}(w)
			}
			wg.Wait()
			st := quant.Stats()
			if st.PQCodes != st.Images {
				t.Fatalf("codes %d out of lockstep with images %d after concurrent inserts", st.PQCodes, st.Images)
			}
		})
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// searchAllocBound is a steady search's allocation budget: the response
// and its hits take 14 on either shard, and a search whose scratch is not
// recycled takes 20 (exact) or 24 (8-bit PQ).
const searchAllocBound = 16

// TestSearchReusesScratch: Search borrows its probe set, lookup table,
// selectors and id buffers from searchScratchPool and puts them back, so
// a steady stream of searches allocates only its response. A borrow that
// is never returned turns the pool into an allocator and shows here as
// the scratch's allocations on every call.
func TestSearchReusesScratch(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of Puts under the race detector")
	}
	exact, quant, feats := buildPQBitsPair(t, 2000, 32, 16, 8, 8)
	req := &core.SearchRequest{Feature: feats[7], TopK: 10, Category: -1}
	for _, tc := range []struct {
		name string
		s    *Shard
	}{{"exact", exact}, {"pq8", quant}} {
		if _, err := tc.s.Search(req); err != nil { // warm the pool
			t.Fatal(err)
		}
		n := testing.AllocsPerRun(200, func() {
			if _, err := tc.s.Search(req); err != nil {
				t.Fatal(err)
			}
		})
		if n > searchAllocBound {
			t.Errorf("%s: %.1f allocations per search, want at most %d", tc.name, n, searchAllocBound)
		}
	}
}

// TestSearchResponsesOutliveScratch: a response belongs to its caller.
// Search recycles its scratch through searchScratchPool, so nothing a
// response holds may point into it. Each goroutine here keeps a response
// while it and three others search again, then checks the kept response
// still reads as it did; under -race an alias also shows as a race between
// one search's writes and another caller's reads.
func TestSearchResponsesOutliveScratch(t *testing.T) {
	exact, quant, feats := buildPQBitsPair(t, 1000, 32, 16, 8, 8)
	for _, s := range []*Shard{exact, quant} {
		reqs := make([]*core.SearchRequest, 8)
		want := make([][]core.Hit, len(reqs))
		for i := range reqs {
			reqs[i] = &core.SearchRequest{Feature: feats[i*97], TopK: 10, Category: -1}
			resp, err := s.Search(reqs[i])
			if err != nil {
				t.Fatal(err)
			}
			want[i] = slices.Clone(resp.Hits)
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					q := (w + i) % len(reqs)
					kept, err := s.Search(reqs[q])
					if err != nil {
						t.Error(err)
						return
					}
					if _, err := s.Search(reqs[(q+1)%len(reqs)]); err != nil {
						t.Error(err)
						return
					}
					if !slices.Equal(kept.Hits, want[q]) {
						t.Errorf("query %d: kept response changed under later searches", q)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}
}
