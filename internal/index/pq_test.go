package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"jdvs/internal/core"
	"jdvs/internal/pq"
	"jdvs/internal/topk"
)

// clusteredFeatures synthesises n feature rows around nc cluster centres —
// the distribution PQ is built for (and roughly what CNN embeddings of
// product photos look like).
func clusteredFeatures(rng *rand.Rand, n, dim, nc int, spread float64) [][]float32 {
	centres := make([]float32, nc*dim)
	for i := range centres {
		centres[i] = float32(rng.NormFloat64() * 4)
	}
	rows := make([][]float32, n)
	for i := range rows {
		c := rng.Intn(nc)
		f := make([]float32, dim)
		for d := range f {
			f[d] = centres[c*dim+d] + float32(rng.NormFloat64()*spread)
		}
		rows[i] = f
	}
	return rows
}

// trainPQ fits a product quantizer of m subquantizers at bits-wide codes
// on train and installs it on s, the path FullIndexer.Build takes.
func trainPQ(t testing.TB, s *Shard, m, bits int, train []float32, seed int64) {
	t.Helper()
	cb, err := pq.Train(pq.Config{Dim: s.Config().Dim, M: m, Bits: bits, Seed: seed}, train)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetPQCodebook(cb); err != nil {
		t.Fatal(err)
	}
}

// buildPQPair builds two shards over the identical corpus: one exact, one
// with a trained product quantizer.
func buildPQPair(t testing.TB, n, dim, nlists, m int) (exact, quantized *Shard, feats [][]float32) {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	feats = clusteredFeatures(rng, n, dim, 24, 0.25)
	train := make([]float32, 0, min(n, 2000)*dim)
	for i := 0; i < min(n, 2000); i++ {
		train = append(train, feats[i]...)
	}
	mk := func(pqM int) *Shard {
		s, err := New(Config{Dim: dim, NLists: nlists, DefaultNProbe: 8, SearchWorkers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Train(train, 5); err != nil {
			t.Fatal(err)
		}
		if pqM > 0 {
			trainPQ(t, s, pqM, 8, train, 5)
		}
		for i, f := range feats {
			a := core.Attrs{ProductID: uint64(i + 1), URL: fmt.Sprintf("jfs://pq/%d.jpg", i), Category: uint16(i % 4)}
			if _, _, err := s.Insert(a, f); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	return mk(0), mk(m), feats
}

// TestPQRecallGuardrail is the accuracy gate on the ADC path: over a set
// of queries, recall@10 of the ADC scan + exact re-rank against the exact
// scan at the same probe count must stay at least 0.95.
func TestPQRecallGuardrail(t *testing.T) {
	const n, dim, queries = 6000, 64, 60
	exact, quant, feats := buildPQPair(t, n, dim, 32, 16)
	if !quant.PQEnabled() {
		t.Fatal("quantized shard did not enable PQ")
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
	t.Logf("ADC+rerank recall@10 over %d queries: %.4f", queries, recall)
	if recall < 0.95 {
		t.Fatalf("recall@10 = %.4f, want >= 0.95", recall)
	}
}

// TestPQSerialParallelEquivalence: the striped ADC scan must return
// exactly the serial ADC scan's results, like the exact path.
func TestPQSerialParallelEquivalence(t *testing.T) {
	const n, dim = 3000, 32
	_, quant, feats := buildPQPair(t, n, dim, 16, 8)
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

// unboundedADCSearch answers req the way Search does — same plan, probe
// set, lookup table, over-fetch depth, re-rank and assembly — but scores
// every published code of every probed list with pq.ADCDist, read one slot
// at a time through inverted.Scan: no block kernel, no bound, no View. It
// is the reference the bounded 8-bit scan must reproduce exactly.
func unboundedADCSearch(t *testing.T, s *Shard, req *core.SearchRequest) *core.SearchResponse {
	t.Helper()
	ps := s.pqState.Load()
	sc := new(searchScratch)
	q := query{sc: sc}
	resp, err := s.prepare(&q, req, ps)
	if err != nil {
		t.Fatal(err)
	}
	if resp != nil {
		return resp
	}
	sel := topk.New(q.rerankK)
	code := make([]byte, ps.cb.CodeBytes())
	scanned := 0
	for _, l := range sc.probe {
		slot := uint32(0)
		s.inv.Scan(l, func(id uint32) bool {
			ps.lists[l].extract(slot, code)
			slot++
			scanned++
			if q.adm.admit(id) {
				sel.Push(uint64(id), pq.ADCDist(sc.lut, code))
			}
			return true
		})
	}
	items := s.rerankExact(req, q.k, sel.Items(), sc, &q.adm)
	return s.assembleResponse(items, scanned, len(sc.probe))
}

// TestBoundedADCScanMatchesUnbounded: on an 8-bit, list-major shard whose
// small lists keep expanding under a real-time writer, Search with one and
// two scan workers returns the hits and Scanned count of
// unboundedADCSearch. Each round inserts a burst of rows while queries run
// (under -race this races the bounded kernel and inverted.View against the
// writer), then compares both worker counts with the reference once the
// burst has landed. RerankK 1 clamps the over-fetch to
// TopK, so the page is the re-ranked ADC top k itself and any candidate
// the scan lost or mis-scored shows in the hits.
func TestBoundedADCScanMatchesUnbounded(t *testing.T) {
	const n, dim, rounds, burst = 3000, 32, 4, 150
	rows, train := loadCorpus(n+rounds*burst, dim)
	cfg := loadConfig(dim, 16, 8, 1)
	cfg.ListInitialCap = 8
	cfg.RerankK = 1
	s := loadShard(t, cfg, train, bulkLoader(t, rows[:n]))
	feats := make([][]float32, n)
	for i := range feats {
		feats[i] = rows[i].Feature
	}
	rng := rand.New(rand.NewSource(17))
	for round := 0; round < rounds; round++ {
		fresh := rows[n+round*burst : n+(round+1)*burst]
		done := make(chan struct{})
		go func() {
			defer close(done)
			for _, r := range fresh {
				if _, _, err := s.Insert(r.Attrs, r.Feature); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
			}
		}()
		for writing := true; writing; {
			select {
			case <-done:
				writing = false
			default:
			}
			reqs := batchRequests(rng, feats, 3)
			s.SetSearchWorkers(1 + round%2)
			if _, err := s.Search(reqs[0]); err != nil {
				t.Fatal(err)
			}
		}
		reqs := batchRequests(rng, feats, 8)
		for _, req := range reqs {
			req.NProbe = 8
		}
		for i, req := range reqs {
			want := unboundedADCSearch(t, s, req)
			for _, workers := range []int{1, 2} {
				s.SetSearchWorkers(workers)
				got, err := s.Search(req)
				if err != nil {
					t.Fatal(err)
				}
				requireSameResponse(t, fmt.Sprintf("round %d query %d workers=%d", round, i, workers), got, want)
			}
		}
	}
}

// TestPQCategoryFilter: the ADC path must honour category scoping like the
// exact path.
func TestPQCategoryFilter(t *testing.T) {
	const n, dim = 2000, 32
	_, quant, feats := buildPQPair(t, n, dim, 16, 8)
	req := &core.SearchRequest{Feature: feats[0], TopK: 20, NProbe: 16, Category: 2}
	resp, err := quant.Search(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Hits) == 0 {
		t.Fatal("category-scoped ADC search returned nothing")
	}
	for _, h := range resp.Hits {
		if h.Category != 2 {
			t.Fatalf("hit leaked category %d through the ADC scan", h.Category)
		}
	}
}

// TestSnapshotNoPQ: shards without a quantizer keep round-tripping (flag
// byte 0) and stay on the exact path.
func TestSnapshotNoPQ(t *testing.T) {
	const n, dim = 1500, 32
	exact, _, feats := buildPQPair(t, n, dim, 16, 8)
	var buf bytes.Buffer
	if err := exact.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := New(Config{Dim: dim, NLists: 16, DefaultNProbe: 8, SearchWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.LoadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if loaded.PQEnabled() {
		t.Fatal("exact shard grew a quantizer through the snapshot")
	}
	req := &core.SearchRequest{Feature: feats[3], TopK: 5, NProbe: 8, Category: -1}
	want, err := exact.Search(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Search(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Hits) != len(got.Hits) || want.Hits[0].Image != got.Hits[0].Image {
		t.Fatalf("round-tripped exact shard disagrees with source: %+v vs %+v", got.Hits, want.Hits)
	}
}

// TestLoadSnapshotRejectsOldVersions: snapshots are single-version. A
// stream stamped with any retired version is refused with the rebuild
// remedy, before anything in the receiving shard is replaced.
func TestLoadSnapshotRejectsOldVersions(t *testing.T) {
	const n, dim = 300, 32
	_, quant, feats := buildPQPair(t, n, dim, 16, 8)
	var buf bytes.Buffer
	if err := quant.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	req := &core.SearchRequest{Feature: feats[5], TopK: 5, NProbe: 8, Category: -1}
	want, err := quant.Search(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, version := range []byte{1, 2, 3} {
		old := append([]byte(nil), buf.Bytes()...)
		old[len(snapMagic)] = version
		err := quant.LoadSnapshot(bytes.NewReader(old))
		wantMsg := fmt.Sprintf("index: snapshot version %d unsupported (this build reads v4 only; rebuild with a full index cycle)", version)
		if err == nil || err.Error() != wantMsg {
			t.Fatalf("version %d: err = %v, want %q", version, err, wantMsg)
		}
		st := quant.Stats()
		if st.Images != n || st.PQCodes != n || !quant.PQEnabled() {
			t.Fatalf("version %d: refused load disturbed the shard: %+v", version, st)
		}
		got, err := quant.Search(req)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResponse(t, "after refused load", got, want)
	}
}

// TestPQConfigValidation: a shard installs only a product quantizer that
// fits it. A codebook for another dimensionality, or one whose
// subquantizers do not tile Dim, is refused and leaves the shard on the
// exact path; a fitting one switches it to ADC.
func TestPQConfigValidation(t *testing.T) {
	s, err := New(Config{Dim: 64, NLists: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	train := func(dim, n int) []float32 {
		out := make([]float32, dim*n)
		for i := range out {
			out[i] = rng.Float32()
		}
		return out
	}
	other, err := pq.Train(pq.Config{Dim: 32, M: 8, Seed: 1}, train(32, 300))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetPQCodebook(other); err == nil {
		t.Fatal("codebook of Dim 32 accepted by a Dim 64 shard")
	}
	untiled := &pq.Codebook{Dim: 64, M: 7, SubDim: 9, Bits: 8, Centroids: make([]float32, 7*pq.NCentroids*9)}
	if err := s.SetPQCodebook(untiled); err == nil {
		t.Fatal("codebook with M 7 over Dim 64 accepted")
	}
	if s.PQEnabled() {
		t.Fatal("refused codebook switched the shard to ADC")
	}
	trainPQ(t, s, 16, 0, train(64, 300), 1)
	if !s.PQEnabled() || s.PQCodebook().M != 16 {
		t.Fatal("fitting codebook not installed")
	}
}
