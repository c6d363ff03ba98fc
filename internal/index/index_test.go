package index

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"testing"

	"jdvs/internal/core"
	"jdvs/internal/kmeans"
)

const testDim = 16

// trainShard returns a shard of cfg holding an IVF codebook of nLists
// centroids that kmeans fits on train (row-major, dim floats per row): the
// path FullIndexer.Build takes.
func trainShard(t testing.TB, cfg Config, nLists, dim int, train []float32, seed int64) *Shard {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := kmeans.Train(kmeans.Config{K: nLists, Dim: dim, Seed: seed}, train)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetCodebook(cb); err != nil {
		t.Fatal(err)
	}
	return s
}

// shapedShard returns an empty shard of cfg with nLists lists of dim
// floats, its codebook all zero centroids: a shape for tests that do not
// depend on where rows are listed.
func shapedShard(t testing.TB, cfg Config, nLists, dim int) *Shard {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetCodebook(&kmeans.Codebook{K: nLists, Dim: dim, Centroids: make([]float32, nLists*dim)}); err != nil {
		t.Fatal(err)
	}
	return s
}

// testShard builds a trained shard over nClusters synthetic clusters.
func testShard(t *testing.T, nLists int) (*Shard, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	train := make([]float32, 0, 500*testDim)
	for i := 0; i < 500; i++ {
		for d := 0; d < testDim; d++ {
			train = append(train, float32(rng.NormFloat64()))
		}
	}
	return trainShard(t, Config{DefaultNProbe: 4}, nLists, testDim, train, 1), rng
}

func randFeature(rng *rand.Rand) []float32 {
	f := make([]float32, testDim)
	for i := range f {
		f[i] = float32(rng.NormFloat64())
	}
	return f
}

func attrsFor(i int) core.Attrs {
	return core.Attrs{
		ProductID:  uint64(i/2 + 1), // two images per product
		Sales:      uint32(i),
		Praise:     uint32(i % 101),
		PriceCents: uint32(1000 + i),
		Category:   uint16(i % 4),
		URL:        fmt.Sprintf("jfs://img/p%d/%d.jpg", i/2+1, i%2),
	}
}

func TestInsertRequiresTraining(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = s.Insert(core.Attrs{URL: "u"}, make([]float32, testDim))
	if !errors.Is(err, ErrNotTrained) {
		t.Fatalf("err = %v, want ErrNotTrained", err)
	}
	if _, err := s.Search(&core.SearchRequest{Feature: make([]float32, testDim)}); !errors.Is(err, ErrNotTrained) {
		t.Fatalf("search err = %v, want ErrNotTrained", err)
	}
}

func TestInsertValidation(t *testing.T) {
	s, rng := testShard(t, 8)
	if _, _, err := s.Insert(core.Attrs{}, randFeature(rng)); err == nil {
		t.Fatal("insert without URL accepted")
	}
	if _, _, err := s.Insert(core.Attrs{URL: "u"}, make([]float32, 3)); err == nil {
		t.Fatal("wrong-dim feature accepted")
	}
}

func TestInsertSearchRoundtrip(t *testing.T) {
	s, rng := testShard(t, 8)
	feats := make([][]float32, 40)
	for i := range feats {
		feats[i] = randFeature(rng)
		id, reused, err := s.Insert(attrsFor(i), feats[i])
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if reused {
			t.Fatalf("insert %d reported reuse", i)
		}
		if id != uint32(i) {
			t.Fatalf("id = %d, want %d", id, i)
		}
	}
	// Searching with an indexed feature must return that exact image first
	// (distance 0) when probing all lists.
	for i := 0; i < 40; i += 7 {
		resp, err := s.Search(&core.SearchRequest{Feature: feats[i], TopK: 3, NProbe: 8, Category: -1})
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Hits) == 0 {
			t.Fatalf("no hits for indexed feature %d", i)
		}
		if resp.Hits[0].Image.Local != uint32(i) || resp.Hits[0].Dist != 0 {
			t.Fatalf("self-query %d returned %+v", i, resp.Hits[0])
		}
		want := attrsFor(i)
		h := resp.Hits[0]
		if h.ProductID != want.ProductID || h.URL != want.URL || h.Sales != want.Sales {
			t.Fatalf("hit attrs %+v, want %+v", h, want)
		}
	}
}

func TestReuseOnReinsert(t *testing.T) {
	s, rng := testShard(t, 8)
	a := attrsFor(0)
	f := randFeature(rng)
	id1, _, err := s.Insert(a, f)
	if err != nil {
		t.Fatal(err)
	}
	// Re-insert same URL with updated attrs and nil feature: must reuse.
	a2 := a
	a2.Sales = 777777
	id2, reused, err := s.Insert(a2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reused || id2 != id1 {
		t.Fatalf("reinsert: id=%d reused=%v", id2, reused)
	}
	got, _ := s.Attrs(id1)
	if got.Sales != 777777 {
		t.Fatalf("attrs not refreshed on reuse: %+v", got)
	}
	st := s.Stats()
	if st.Images != 1 || st.Inserts != 2 || st.ReusedInserts != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRemoveAndRevalidate(t *testing.T) {
	s, rng := testShard(t, 8)
	f := randFeature(rng)
	a := attrsFor(0)
	id, _, err := s.Insert(a, f)
	if err != nil {
		t.Fatal(err)
	}
	changed, err := s.RemoveImageURL(a.URL)
	if err != nil || !changed {
		t.Fatalf("RemoveImageURL = %v, %v", changed, err)
	}
	if s.Valid(id) {
		t.Fatal("image still valid after removal")
	}
	// Deleted images are excluded from search.
	resp, err := s.Search(&core.SearchRequest{Feature: f, TopK: 5, NProbe: 8, Category: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range resp.Hits {
		if h.Image.Local == id {
			t.Fatal("deleted image returned by search")
		}
	}
	// Re-add: validity flips back, same record.
	id2, reused, err := s.Insert(a, nil)
	if err != nil || !reused || id2 != id {
		t.Fatalf("re-add: id=%d reused=%v err=%v", id2, reused, err)
	}
	if !s.Valid(id) {
		t.Fatal("image invalid after re-add")
	}
	resp, _ = s.Search(&core.SearchRequest{Feature: f, TopK: 1, NProbe: 8, Category: -1})
	if len(resp.Hits) != 1 || resp.Hits[0].Image.Local != id {
		t.Fatalf("re-added image not searchable: %+v", resp.Hits)
	}
}

// TestRemoveUnknownProduct pins that an update for an image of a product
// the shard never indexed reports ErrUnknownURL.
func TestRemoveUnknownProduct(t *testing.T) {
	s, _ := testShard(t, 8)
	if _, err := s.RemoveImageURL("nope"); !errors.Is(err, ErrUnknownURL) {
		t.Fatalf("err = %v", err)
	}
	if err := s.UpdateAttrsURL("nope", 1, 2, 3, 0); !errors.Is(err, ErrUnknownURL) {
		t.Fatalf("err = %v", err)
	}
}

func TestUpdateAttrs(t *testing.T) {
	s, rng := testShard(t, 8)
	a0, a1 := attrsFor(0), attrsFor(1) // same product, two images
	if _, _, err := s.Insert(a0, randFeature(rng)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Insert(a1, randFeature(rng)); err != nil {
		t.Fatal(err)
	}
	for _, a := range []core.Attrs{a0, a1} {
		if err := s.UpdateAttrsURL(a.URL, 500, 60, 700, 9); err != nil {
			t.Fatal(err)
		}
	}
	for id := uint32(0); id < 2; id++ {
		got, _ := s.Attrs(id)
		if got.Sales != 500 || got.Praise != 60 || got.PriceCents != 700 || got.Category != 9 {
			t.Fatalf("image %d attrs = %+v", id, got)
		}
	}
	// An update touches only the image its URL names.
	if err := s.UpdateAttrsURL(a0.URL, 1, 2, 3, 4); err != nil {
		t.Fatal(err)
	}
	g0, _ := s.Attrs(0)
	g1, _ := s.Attrs(1)
	if g0.Sales != 1 || g1.Sales != 500 || g0.Category != 4 || g1.Category != 9 {
		t.Fatalf("URL-level update leaked: %+v %+v", g0, g1)
	}
}

func TestCategoryScopedSearch(t *testing.T) {
	s, rng := testShard(t, 8)
	for i := 0; i < 40; i++ {
		if _, _, err := s.Insert(attrsFor(i), randFeature(rng)); err != nil {
			t.Fatal(err)
		}
	}
	q := randFeature(rng)
	resp, err := s.Search(&core.SearchRequest{Feature: q, TopK: 20, NProbe: 8, Category: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Hits) == 0 {
		t.Fatal("category scope returned nothing")
	}
	for _, h := range resp.Hits {
		if h.Category != 2 {
			t.Fatalf("hit outside category scope: %+v", h)
		}
	}
}

func TestSearchDefaults(t *testing.T) {
	s, rng := testShard(t, 8)
	for i := 0; i < 30; i++ {
		if _, _, err := s.Insert(attrsFor(i), randFeature(rng)); err != nil {
			t.Fatal(err)
		}
	}
	// TopK and NProbe default when zero.
	resp, err := s.Search(&core.SearchRequest{Feature: randFeature(rng), Category: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Hits) == 0 || len(resp.Hits) > 10 {
		t.Fatalf("default search returned %d hits", len(resp.Hits))
	}
	if resp.Probed != 4 { // DefaultNProbe from config
		t.Fatalf("probed %d lists, want 4", resp.Probed)
	}
	if _, err := s.Search(&core.SearchRequest{Feature: make([]float32, 3)}); err == nil {
		t.Fatal("wrong-dim query accepted")
	}
}

// TestRecallNProbe: recall@1 for self-queries must increase with nprobe
// and reach 1.0 at full probe width.
func TestRecallNProbe(t *testing.T) {
	s, rng := testShard(t, 16)
	const n = 300
	feats := make([][]float32, n)
	for i := range feats {
		feats[i] = randFeature(rng)
		a := attrsFor(i)
		a.URL = fmt.Sprintf("u-%d", i) // distinct URLs
		a.ProductID = uint64(i + 1)
		if _, _, err := s.Insert(a, feats[i]); err != nil {
			t.Fatal(err)
		}
	}
	recallAt := func(nprobe int) float64 {
		hits := 0
		for i := 0; i < n; i++ {
			resp, err := s.Search(&core.SearchRequest{Feature: feats[i], TopK: 1, NProbe: nprobe, Category: -1})
			if err != nil {
				t.Fatal(err)
			}
			if len(resp.Hits) > 0 && resp.Hits[0].Image.Local == uint32(i) {
				hits++
			}
		}
		return float64(hits) / n
	}
	r1, rFull := recallAt(1), recallAt(16)
	if rFull != 1.0 {
		t.Fatalf("full-probe recall = %v, want 1.0", rFull)
	}
	if r1 > rFull {
		t.Fatalf("recall@nprobe=1 (%v) exceeds full probe (%v)", r1, rFull)
	}
	// nprobe=1 must still find the exact match most of the time (the query
	// IS the indexed vector, so its nearest centroid is the right list).
	if r1 < 0.99 {
		t.Fatalf("self-query recall at nprobe=1 = %v, want >= 0.99", r1)
	}
}

func TestSnapshotRoundtrip(t *testing.T) {
	s, rng := testShard(t, 8)
	feats := make([][]float32, 60)
	for i := range feats {
		feats[i] = randFeature(rng)
		if _, _, err := s.Insert(attrsFor(i), feats[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range []int{4, 5} { // some invalid bits
		if _, err := s.RemoveImageURL(attrsFor(i).URL); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	dup, err := New(s.Config())
	if err != nil {
		t.Fatal(err)
	}
	if err := dup.LoadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	// Same contents: self-queries, attributes, validity, reuse tables.
	for i := 0; i < 60; i += 11 {
		want, _ := s.Attrs(uint32(i))
		got, ok := dup.Attrs(uint32(i))
		if !ok || got != want {
			t.Fatalf("attrs %d: %+v vs %+v", i, got, want)
		}
		if s.Valid(uint32(i)) != dup.Valid(uint32(i)) {
			t.Fatalf("validity %d differs", i)
		}
	}
	if !maps.Equal(dup.byURL, s.byURL) {
		t.Fatal("byURL table not rebuilt")
	}
	// Feature-row accounting: Dim×4 bytes per image, chunk-rounded, the
	// same on both sides of the load.
	if got, want := dup.Stats().FeatureHeapBytes, s.Stats().FeatureHeapBytes; got != want || got < 60*testDim*4 {
		t.Fatalf("feature heap %d bytes after load, %d before, want >= %d", got, want, 60*testDim*4)
	}
	resp, err := dup.Search(&core.SearchRequest{Feature: feats[10], TopK: 1, NProbe: 8, Category: -1})
	if err != nil || len(resp.Hits) == 0 || resp.Hits[0].Image.Local != 10 {
		t.Fatalf("snapshot search broken: %+v, %v", resp, err)
	}
	// Deleted product remains deleted.
	resp, _ = dup.Search(&core.SearchRequest{Feature: feats[8], TopK: 60, NProbe: 8, Category: -1})
	for _, h := range resp.Hits {
		if h.ProductID == attrsFor(4).ProductID {
			t.Fatal("deleted product resurrected by snapshot")
		}
	}
}

func TestLoadSnapshotCorrupt(t *testing.T) {
	s, rng := testShard(t, 4)
	if _, _, err := s.Insert(attrsFor(0), randFeature(rng)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 4, 9, buf.Len() / 2, buf.Len() - 1} {
		dup, _ := New(s.Config())
		if err := dup.LoadSnapshot(bytes.NewReader(buf.Bytes()[:cut])); err == nil {
			t.Errorf("truncated snapshot (%d bytes) accepted", cut)
		}
	}
	// Bad magic.
	dup, _ := New(s.Config())
	bad := append([]byte("NOTMAGIC!"), buf.Bytes()[9:]...)
	if err := dup.LoadSnapshot(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
}

// TestLoadSnapshotCorruptCodeSection: the ADC scan pairs a list's i-th id
// with its i-th code, so a code section whose per-list counts disagree
// with the inverted lists — truncated, or one code moved between lists —
// must fail the load at either code width rather than serve shifted codes.
func TestLoadSnapshotCorruptCodeSection(t *testing.T) {
	for _, bits := range []int{8, 4} {
		_, quant, _ := buildPQBitsPair(t, 400, 32, 4, 8, bits)
		moved, truncated := corruptCodeSections(t, quant)
		dup, _ := New(quant.Config())
		if err := dup.LoadSnapshot(bytes.NewReader(moved)); err == nil {
			t.Errorf("bits=%d: code section with a code moved between lists accepted", bits)
		}
		dup, _ = New(quant.Config())
		if err := dup.LoadSnapshot(bytes.NewReader(truncated)); err == nil {
			t.Errorf("bits=%d: truncated code section accepted", bits)
		}
	}
}

// TestConcurrentSearchDuringRealtimeOps is the shard-level version of the
// paper's search/update concurrency claim. Run with -race.
func TestConcurrentSearchDuringRealtimeOps(t *testing.T) {
	s, rng := testShard(t, 8)
	const initial = 200
	feats := make([][]float32, initial)
	for i := range feats {
		feats[i] = randFeature(rng)
		if _, _, err := s.Insert(attrsFor(i), feats[i]); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	// Single writer: mixed inserts, removals, re-adds, attr updates.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		wrng := rand.New(rand.NewSource(99))
		for i := 0; i < 3000; i++ {
			switch wrng.Intn(4) {
			case 0:
				a := core.Attrs{
					ProductID: uint64(1000 + i),
					URL:       fmt.Sprintf("rt-%d", i),
					Category:  uint16(i % 4),
				}
				if _, _, err := s.Insert(a, randFeature(wrng)); err != nil {
					t.Errorf("rt insert: %v", err)
					return
				}
			case 1:
				_, _ = s.RemoveImageURL(attrsFor(wrng.Intn(initial)).URL)
			case 2:
				a := attrsFor(wrng.Intn(initial))
				if _, _, err := s.Insert(a, nil); err != nil {
					t.Errorf("rt re-add: %v", err)
					return
				}
			case 3:
				_ = s.UpdateAttrsURL(attrsFor(wrng.Intn(initial)).URL, uint32(i), 1, 2, uint16(i%4))
			}
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
				req := &core.SearchRequest{Feature: feats[qrng.Intn(len(feats))], TopK: 10, NProbe: 8, Category: -1}
				if qrng.Intn(2) == 0 {
					// Filtered: the exact plan walks the admitted rows and
					// the appended tail while the writer grows both.
					req.Category, req.MinSales = int32(qrng.Intn(4)), uint32(qrng.Intn(2))
				}
				resp, err := s.Search(req)
				if err != nil {
					t.Errorf("search during rt ops: %v", err)
					return
				}
				for _, h := range resp.Hits {
					if h.URL == "" {
						t.Error("hit with empty URL during rt ops")
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestSearchSerialParallelEquivalence pins the tentpole contract: for any
// worker count, Search returns exactly the hits of the serial scan, across
// probe widths, result sizes, category scoping and deletions.
func TestSearchSerialParallelEquivalence(t *testing.T) {
	s, rng := testShard(t, 32)
	configuredWorkers := s.SearchWorkers() // before any runtime override
	const n = 1500
	for i := 0; i < n; i++ {
		if _, _, err := s.Insert(attrsFor(i), randFeature(rng)); err != nil {
			t.Fatal(err)
		}
	}
	// Delete a slice of images so validity filtering is exercised too.
	for i := 0; i < 200; i += 3 {
		if _, err := s.RemoveImageURL(attrsFor(i).URL); err != nil {
			t.Fatal(err)
		}
	}
	queries := make([][]float32, 10)
	for i := range queries {
		queries[i] = randFeature(rng)
	}
	for _, nprobe := range []int{1, 4, 8, 16, 32} {
		for _, k := range []int{1, 10, 40} {
			for _, category := range []int32{-1, 2} {
				// Serial reference per query, then every parallel width
				// must reproduce it exactly.
				serial := make([]*core.SearchResponse, len(queries))
				s.SetSearchWorkers(1)
				for qi, q := range queries {
					resp, err := s.Search(&core.SearchRequest{Feature: q, TopK: k, NProbe: nprobe, Category: category})
					if err != nil {
						t.Fatal(err)
					}
					serial[qi] = resp
				}
				for _, workers := range []int{2, 3, 4, 7} {
					s.SetSearchWorkers(workers)
					for qi, q := range queries {
						got, err := s.Search(&core.SearchRequest{Feature: q, TopK: k, NProbe: nprobe, Category: category})
						if err != nil {
							t.Fatal(err)
						}
						want := serial[qi]
						if len(got.Hits) != len(want.Hits) || got.Scanned != want.Scanned || got.Probed != want.Probed {
							t.Fatalf("nprobe=%d k=%d cat=%d workers=%d query=%d: shape %d/%d/%d, serial %d/%d/%d",
								nprobe, k, category, workers, qi,
								len(got.Hits), got.Scanned, got.Probed,
								len(want.Hits), want.Scanned, want.Probed)
						}
						for i := range got.Hits {
							if got.Hits[i] != want.Hits[i] {
								t.Fatalf("nprobe=%d k=%d cat=%d workers=%d query=%d hit %d: %+v, serial %+v",
									nprobe, k, category, workers, qi, i, got.Hits[i], want.Hits[i])
							}
						}
					}
				}
			}
		}
	}
	s.SetSearchWorkers(0) // restore configured default
	if got := s.SearchWorkers(); got != configuredWorkers {
		t.Fatalf("SetSearchWorkers(0) restored %d, want configured %d", got, configuredWorkers)
	}
}

// TestSearchTopKClamped guards the wire boundary: an absurd TopK must not
// size per-worker selectors at the requested depth.
func TestSearchTopKClamped(t *testing.T) {
	s, rng := testShard(t, 8)
	for i := 0; i < 20; i++ {
		if _, _, err := s.Insert(attrsFor(i), randFeature(rng)); err != nil {
			t.Fatal(err)
		}
	}
	s.SetSearchWorkers(4)
	defer s.SetSearchWorkers(0)
	resp, err := s.Search(&core.SearchRequest{Feature: randFeature(rng), TopK: 1 << 30, NProbe: 8, Category: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Hits) == 0 || len(resp.Hits) > MaxTopK {
		t.Fatalf("clamped search returned %d hits", len(resp.Hits))
	}
}

// TestParallelSearchDuringRealtimeOps is the §2.4 concurrency claim with
// the parallel scan path on: the single real-time writer mutates the shard
// while readers fan each query across multiple scan goroutines. Run with
// -race.
func TestParallelSearchDuringRealtimeOps(t *testing.T) {
	s, rng := testShard(t, 8)
	s.SetSearchWorkers(4)
	const initial = 200
	feats := make([][]float32, initial)
	for i := range feats {
		feats[i] = randFeature(rng)
		if _, _, err := s.Insert(attrsFor(i), feats[i]); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	// Single writer: mixed inserts, removals, re-adds, attr updates.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		wrng := rand.New(rand.NewSource(42))
		for i := 0; i < 2000; i++ {
			switch wrng.Intn(4) {
			case 0:
				a := core.Attrs{
					ProductID: uint64(2000 + i),
					URL:       fmt.Sprintf("rt-par-%d", i),
					Category:  uint16(i % 4),
				}
				if _, _, err := s.Insert(a, randFeature(wrng)); err != nil {
					t.Errorf("rt insert: %v", err)
					return
				}
			case 1:
				_, _ = s.RemoveImageURL(attrsFor(wrng.Intn(initial)).URL)
			case 2:
				if _, _, err := s.Insert(attrsFor(wrng.Intn(initial)), nil); err != nil {
					t.Errorf("rt re-add: %v", err)
					return
				}
			case 3:
				_ = s.UpdateAttrsURL(attrsFor(wrng.Intn(initial)).URL, uint32(i), 1, 2, uint16(i%4))
			}
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
				req := &core.SearchRequest{Feature: feats[qrng.Intn(len(feats))], TopK: 10, NProbe: 8, Category: -1}
				if qrng.Intn(2) == 0 {
					// Filtered: the exact plan walks the admitted rows and
					// the appended tail while the writer grows both.
					req.Category, req.MinSales = int32(qrng.Intn(4)), uint32(qrng.Intn(2))
				}
				resp, err := s.Search(req)
				if err != nil {
					t.Errorf("parallel search during rt ops: %v", err)
					return
				}
				for _, h := range resp.Hits {
					if h.URL == "" {
						t.Error("hit with empty URL during rt ops")
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestReListingRefreshesCategory pins the re-listing bugfix: a product
// removed from the market and put back under a different category must
// serve the new category to scoped searches, not the stale one.
func TestReListingRefreshesCategory(t *testing.T) {
	s, rng := testShard(t, 8)
	a := core.Attrs{ProductID: 7, Category: 1, URL: "jfs://relist/0.jpg"}
	f := randFeature(rng)
	id, _, err := s.Insert(a, f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RemoveImageURL(a.URL); err != nil {
		t.Fatal(err)
	}
	// Re-listed under category 3.
	a.Category = 3
	id2, reused, err := s.Insert(a, nil)
	if err != nil || !reused || id2 != id {
		t.Fatalf("re-list: id=%d reused=%v err=%v", id2, reused, err)
	}
	got, _ := s.Attrs(id)
	if got.Category != 3 {
		t.Fatalf("category after re-listing = %d, want 3", got.Category)
	}
	for _, tc := range []struct {
		category int32
		found    bool
	}{{3, true}, {1, false}} {
		resp, err := s.Search(&core.SearchRequest{Feature: f, TopK: 5, NProbe: 8, Category: tc.category})
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, h := range resp.Hits {
			if h.Image.Local == id {
				found = true
			}
		}
		if found != tc.found {
			t.Fatalf("category %d scoped search found=%v, want %v", tc.category, found, tc.found)
		}
	}
}

// TestReListingMovesProduct pins the companion fix: a URL re-listed under
// a different product carries its new owner in the forward record and in
// search hits, and stays addressable by URL.
func TestReListingMovesProduct(t *testing.T) {
	s, rng := testShard(t, 8)
	a := core.Attrs{ProductID: 7, Category: 1, URL: "jfs://move/0.jpg"}
	f := randFeature(rng)
	id, _, err := s.Insert(a, f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RemoveImageURL(a.URL); err != nil {
		t.Fatal(err)
	}
	a.ProductID = 9
	if _, reused, err := s.Insert(a, nil); err != nil || !reused {
		t.Fatalf("re-list: reused=%v err=%v", reused, err)
	}
	got, _ := s.Attrs(id)
	if got.ProductID != 9 {
		t.Fatalf("ProductID after re-listing = %d, want 9", got.ProductID)
	}
	resp, err := s.Search(&core.SearchRequest{Feature: f, TopK: 1, NProbe: 8, Category: -1})
	if err != nil || len(resp.Hits) != 1 || resp.Hits[0].ProductID != 9 {
		t.Fatalf("hit after re-listing = %+v, %v; want product 9", resp, err)
	}
	if err := s.UpdateAttrsURL(a.URL, 5, 6, 7, 2); err != nil {
		t.Fatal(err)
	}
	if changed, err := s.RemoveImageURL(a.URL); err != nil || !changed {
		t.Fatalf("RemoveImageURL = %v, %v", changed, err)
	}
	if s.Valid(id) {
		t.Fatal("image still valid after removal under new product")
	}
}

func TestConfigValidation(t *testing.T) {
	// A DefaultNProbe above the codebook's list count probes every list.
	s := shapedShard(t, Config{DefaultNProbe: 100}, 2, 4)
	resp, err := s.Search(&core.SearchRequest{Feature: make([]float32, 4), Category: -1})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Probed != 2 {
		t.Fatalf("nprobe not clamped: probed %d lists of 2", resp.Probed)
	}
	// SearchWorkers defaults from GOMAXPROCS and round-trips through
	// Config for derived shards.
	if s.Config().SearchWorkers < 1 {
		t.Fatalf("SearchWorkers not defaulted: %d", s.Config().SearchWorkers)
	}
	s2, err := New(Config{SearchWorkers: 6})
	if err != nil {
		t.Fatal(err)
	}
	if s2.SearchWorkers() != 6 || s2.Config().SearchWorkers != 6 {
		t.Fatalf("explicit SearchWorkers lost: %d", s2.SearchWorkers())
	}
	s2.SetSearchWorkers(2)
	if s2.Config().SearchWorkers != 2 {
		t.Fatalf("runtime SearchWorkers not reflected in Config: %d", s2.Config().SearchWorkers)
	}
}

func TestSetCodebookValidation(t *testing.T) {
	s, rng := testShard(t, 8)
	other, _ := testShard(t, 8)
	small, _ := testShard(t, 4)
	if err := s.SetCodebook(other.Codebook()); err != nil {
		t.Fatalf("compatible codebook rejected: %v", err)
	}
	// An empty shard takes the shape of any codebook it is given.
	empty, _ := testShard(t, 8)
	if err := empty.SetCodebook(small.Codebook()); err != nil {
		t.Fatalf("empty shard refused a 4-list codebook: %v", err)
	}
	if got := empty.Stats().Lists; got != 4 {
		t.Fatalf("reshaped shard has %d lists, want 4", got)
	}
	// A shard holding rows keeps its shape.
	if _, _, err := s.Insert(attrsFor(0), randFeature(rng)); err != nil {
		t.Fatal(err)
	}
	if err := s.SetCodebook(small.Codebook()); err == nil {
		t.Fatal("K-mismatched codebook accepted")
	}
	if err := s.SetCodebook(&kmeans.Codebook{K: 8, Dim: 8, Centroids: make([]float32, 64)}); err == nil {
		t.Fatal("Dim-mismatched codebook accepted")
	}
	if err := s.SetCodebook(other.Codebook()); err != nil {
		t.Fatalf("compatible codebook rejected by a shard holding rows: %v", err)
	}
	// Shapes no shard can have.
	for _, cb := range []*kmeans.Codebook{
		{K: 0, Dim: 4},
		{K: 2, Dim: 0},
		{K: 1, Dim: core.MaxFeatureDim + 1, Centroids: make([]float32, core.MaxFeatureDim+1)},
	} {
		fresh, _ := New(Config{})
		if err := fresh.SetCodebook(cb); err == nil {
			t.Errorf("codebook K=%d Dim=%d accepted", cb.K, cb.Dim)
		}
	}
}
