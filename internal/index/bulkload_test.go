package index

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"jdvs/internal/core"
	"jdvs/internal/topk"
	"jdvs/internal/vecmath"
)

// loadCorpus is the corpus the bulk-load tests share: clustered features
// with filterAttrs attributes, in "sorted URL" (index) order, and the
// training sample both codebooks are fitted on.
func loadCorpus(n, dim int) (rows []Row, train []float32) {
	rng := rand.New(rand.NewSource(41))
	feats := clusteredFeatures(rng, n, dim, 24, 0.25)
	rows = make([]Row, n)
	for i, f := range feats {
		rows[i] = Row{Attrs: filterAttrs(i, n), Feature: f}
		if i < 2000 {
			train = append(train, f...)
		}
	}
	return rows, train
}

// shardSpec is a test shard's config plus the codebooks loadShard trains
// for it: nLists IVF centroids of dim floats, and a product quantizer of
// pqM subquantizers at pqBits-wide codes, none when pqM is 0.
type shardSpec struct {
	Config
	dim, nLists int
	pqM, pqBits int
}

// loadConfig is the bulk-load tests' shard shape: bits 0 = exact, else
// that PQ width at M=8.
func loadConfig(dim, nlists, bits, workers int) shardSpec {
	spec := shardSpec{Config: Config{DefaultNProbe: 8, SearchWorkers: workers}, dim: dim, nLists: nlists}
	if bits != 0 {
		spec.pqM, spec.pqBits = 8, bits
	}
	return spec
}

// loadShard builds a shard of spec, trains its codebooks (the product
// quantizer when spec asks for one) and fills it through load.
func loadShard(t testing.TB, spec shardSpec, train []float32, load func(*Shard)) *Shard {
	t.Helper()
	s := trainShard(t, spec.Config, spec.nLists, spec.dim, train, 5)
	if spec.pqM > 0 {
		trainPQ(t, s, spec.pqM, spec.pqBits, train, 5)
	}
	load(s)
	return s
}

// bulkLoader and insertLoader fill a shard with rows the two ways under
// test: one BulkLoad, or row by row in the given order.
func bulkLoader(t testing.TB, rows []Row) func(*Shard) {
	return func(s *Shard) {
		t.Helper()
		if err := s.BulkLoad(rows); err != nil {
			t.Fatal(err)
		}
	}
}

func insertLoader(t testing.TB, rows []Row) func(*Shard) {
	return func(s *Shard) {
		t.Helper()
		for _, r := range rows {
			if _, _, err := s.Insert(r.Attrs, r.Feature); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// requireListMajor fails unless the inverted lists, taken in list order,
// hold exactly the IDs 0..images-1 in ascending order: every list one
// consecutive run, starting where the previous list's run ended.
func requireListMajor(t *testing.T, label string, s *Shard) {
	t.Helper()
	next := uint32(0)
	for l := 0; l < s.inv.Lists(); l++ {
		s.inv.Scan(l, func(id uint32) bool {
			if id != next {
				t.Fatalf("%s: list %d yields id %d, want %d (one ascending run per list)", label, l, id, next)
			}
			next++
			return true
		})
	}
	if int(next) != s.fwd.Len() {
		t.Fatalf("%s: lists hold %d ids, forward index %d", label, next, s.fwd.Len())
	}
}

// TestBulkLoadListMajor: a bulk load hands out IDs list by list, keeps the
// caller's order inside a list, survives the snapshot codec with that
// layout, and is a pure function of its input — two loads write the same
// snapshot bytes.
func TestBulkLoadListMajor(t *testing.T) {
	const n, dim, nlists = 3000, 32, 16
	rows, train := loadCorpus(n, dim)
	for _, bits := range []int{0, 4} {
		t.Run(fmt.Sprintf("bits=%d", bits), func(t *testing.T) {
			s := loadShard(t, loadConfig(dim, nlists, bits, 1), train, bulkLoader(t, rows))
			requireListMajor(t, "bulk-loaded", s)
			// Inside a list, IDs follow the caller's order: the corpus
			// index recorded in ProductID ascends with the ID.
			for l := 0; l < nlists; l++ {
				prev := uint64(0)
				s.inv.Scan(l, func(id uint32) bool {
					a, _ := s.fwd.Get(id)
					if a.ProductID <= prev {
						t.Fatalf("list %d: id %d is corpus row %d, after row %d", l, id, a.ProductID-1, prev-1)
					}
					prev = a.ProductID
					return true
				})
			}

			var snap bytes.Buffer
			if err := s.WriteSnapshot(&snap); err != nil {
				t.Fatal(err)
			}
			again := loadShard(t, loadConfig(dim, nlists, bits, 1), train, bulkLoader(t, rows))
			var snap2 bytes.Buffer
			if err := again.WriteSnapshot(&snap2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(snap.Bytes(), snap2.Bytes()) {
				t.Fatal("two bulk loads of the same rows wrote different snapshots")
			}
			loaded, err := New(s.Config())
			if err != nil {
				t.Fatal(err)
			}
			if err := loaded.LoadSnapshot(&snap); err != nil {
				t.Fatal(err)
			}
			requireListMajor(t, "snapshot-loaded", loaded)
		})
	}
}

// pageOf reduces a response to what must not depend on ID assignment.
func pageOf(resp *core.SearchResponse) []string {
	out := make([]string, len(resp.Hits))
	for i, h := range resp.Hits {
		out[i] = fmt.Sprintf("%s@%v", h.URL, h.Dist)
	}
	return out
}

// TestBulkLoadMatchesInsert: the same corpus bulk-loaded and inserted row
// by row in URL order answers every query with the same (URL, dist) page —
// IDs differ, results do not — on the exact, 8-bit and 4-bit paths, serial
// and striped, across the selectivity and predicate sweep of
// TestFilteredExactMatchesOracle.
func TestBulkLoadMatchesInsert(t *testing.T) {
	const n, dim, nlists = 3000, 32, 16
	rows, train := loadCorpus(n, dim)
	feats := make([][]float32, n)
	for i := range rows {
		feats[i] = rows[i].Feature
	}
	predicates := []core.SearchRequest{
		{Category: 1},
		{Category: 2},
		{Category: 3},
		{Category: -1},
		{Category: -1, MinPriceCents: 2000, MaxPriceCents: 5000},
		{Category: -1, MinSales: 50},
		{Category: 3, MinPriceCents: 1000, MaxPriceCents: 8000, MinSales: 20},
	}
	for _, bits := range []int{0, 8, 4} {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("bits=%d/workers=%d", bits, workers), func(t *testing.T) {
				bulk := loadShard(t, loadConfig(dim, nlists, bits, workers), train, bulkLoader(t, rows))
				serial := loadShard(t, loadConfig(dim, nlists, bits, workers), train, insertLoader(t, rows))
				rng := rand.New(rand.NewSource(43))
				var reqs []*core.SearchRequest
				for qi := 0; qi < 4*len(predicates); qi++ {
					req := predicates[qi%len(predicates)]
					req.Feature = filterQuery(rng, feats, dim)
					req.TopK = 10
					reqs = append(reqs, &req)
				}
				for i, req := range reqs {
					got, err := bulk.Search(req)
					if err != nil {
						t.Fatal(err)
					}
					want, err := serial.Search(req)
					if err != nil {
						t.Fatal(err)
					}
					wantPage := fmt.Sprint(pageOf(want))
					if len(want.Hits) == 0 {
						t.Fatalf("query %d: empty reference page", i)
					}
					if page := fmt.Sprint(pageOf(got)); page != wantPage {
						t.Fatalf("query %d (%+v): bulk page\n%s\nwant\n%s", i, predicates[i%len(predicates)], page, wantPage)
					}
				}
			})
		}
	}
}

// rowPrefix returns a feature store holding only rows [0, n) of m — the
// store-level gap rerankExact back-fills around: every later row reads as
// unavailable.
func rowPrefix(m *featMat, n uint32) *featMat {
	p := newFeatMat(m.dim)
	for id := uint32(0); id < n; id++ {
		if _, err := p.Append(m.Row(id)); err != nil {
			panic(err)
		}
	}
	return p
}

// TestRerankBackfillsInADCOrder: candidates reach rerankExact in selector
// (heap) order, not ADC order. When raw rows are unavailable the shortfall
// must still be filled from the best ADC estimates, never displacing an
// exact score.
func TestRerankBackfillsInADCOrder(t *testing.T) {
	const n, dim, nlists, k = 400, 32, 4, 5
	rows, train := loadCorpus(n, dim)
	s := loadShard(t, loadConfig(dim, nlists, 8, 1), train, bulkLoader(t, rows))
	req := &core.SearchRequest{Feature: rows[7].Feature, TopK: k, Category: -1}
	adm := admission{live: s.valid}

	// An over-fetch of 40 candidates with distinct ADC distances, handed
	// over as a selector leaves them: heap order. The estimate falls as the
	// id grows, so the ADC-worst candidates are the lowest ids — the ones
	// a row prefix can keep while hiding every other candidate's row.
	over := topk.New(40)
	rng := rand.New(rand.NewSource(3))
	for _, id := range rng.Perm(n)[:40] {
		over.Push(uint64(id), 100+float32(n-id))
	}
	cands := append([]topk.Item(nil), over.Items()...)
	byADC := append([]topk.Item(nil), cands...)
	topk.Sort(byADC)
	if fmt.Sprint(cands) == fmt.Sprint(byADC) {
		t.Fatal("the selector's heap order happens to be sorted; the test would prove nothing")
	}
	sc := new(searchScratch)

	// No row available: the page is the k best ADC estimates, in order.
	all := s.feats
	s.feats = rowPrefix(all, 0)
	got := s.rerankExact(req, k, cands, sc, &adm)
	if fmt.Sprint(got) != fmt.Sprint(byADC[:k]) {
		t.Fatalf("all rows missing: page %v, want the ADC-best %v", got, byADC[:k])
	}

	// Only the two ADC-worst candidates have rows: both are served with
	// their exact distance, and the k-2 ADC-best of the rest fill the page.
	exact := []uint64{byADC[38].ID, byADC[39].ID}
	s.feats = rowPrefix(all, uint32(max(exact[0], exact[1]))+1)
	got = s.rerankExact(req, k, cands, sc, &adm)
	want := topk.New(k)
	for _, id := range exact {
		want.Push(id, vecmath.L2Squared(req.Feature, all.Row(uint32(id))))
	}
	for _, it := range byADC[:k-2] {
		want.Push(it.ID, it.Dist)
	}
	if fmt.Sprint(got) != fmt.Sprint(want.Sorted()) {
		t.Fatalf("two rows available: page %v, want %v", got, want.Sorted())
	}

	// A delisted candidate is not back-filled, however good its estimate.
	s.feats = rowPrefix(all, 0)
	s.valid.Clear(uint32(byADC[0].ID))
	got = s.rerankExact(req, k, cands, sc, &adm)
	if fmt.Sprint(got) != fmt.Sprint(byADC[1:k+1]) {
		t.Fatalf("best candidate delisted: page %v, want %v", got, byADC[1:k+1])
	}
	s.feats = all
}

// TestInsertAfterBulkLoadAppendsAtTail: real-time inserts after a full
// build keep appending — next ID, end of the feature's list — and are
// searchable at once, on the exact and the quantized path.
func TestInsertAfterBulkLoadAppendsAtTail(t *testing.T) {
	const n, dim, nlists = 1000, 32, 8
	rows, train := loadCorpus(n+20, dim)
	fresh := rows[n:]
	for _, bits := range []int{0, 4} {
		s := loadShard(t, loadConfig(dim, nlists, bits, 1), train, bulkLoader(t, rows[:n]))
		for i, r := range fresh {
			id, reused, err := s.Insert(r.Attrs, r.Feature)
			if err != nil || reused {
				t.Fatalf("bits=%d insert %d: reused=%v err=%v", bits, i, reused, err)
			}
			if want := core.ImageID(n + i); id != want {
				t.Fatalf("bits=%d insert %d: id %d, want the tail id %d", bits, i, id, want)
			}
			l := s.codebook.Assign(r.Feature)
			last := uint32(0)
			s.inv.Scan(l, func(v uint32) bool { last = v; return true })
			if last != id {
				t.Fatalf("bits=%d insert %d: list %d ends with id %d, want %d", bits, i, l, last, id)
			}
			// TopK 10 over-fetches past the row's whole list on the 4-bit
			// path, whose estimates cannot rank inside one tight cluster.
			resp, err := s.Search(&core.SearchRequest{Feature: r.Feature, TopK: 10, NProbe: 1, Category: -1})
			if err != nil {
				t.Fatal(err)
			}
			if len(resp.Hits) == 0 || resp.Hits[0].URL != r.Attrs.URL {
				t.Fatalf("bits=%d insert %d: self-query returned %+v", bits, i, resp.Hits)
			}
		}
		if st := s.Stats(); st.Images != n+len(fresh) || (bits != 0 && st.PQCodes != st.Images) {
			t.Fatalf("bits=%d: stats %+v after %d tail inserts", bits, st, len(fresh))
		}
	}
}

// TestBulkLoadRejectsBadRows: a wrong-dimension row fails the load before
// anything is committed, and an untrained shard refuses it.
func TestBulkLoadRejectsBadRows(t *testing.T) {
	const dim = 32
	rows, train := loadCorpus(50, dim)
	s := loadShard(t, loadConfig(dim, 4, 0, 1), train, func(*Shard) {})
	bad := append(append([]Row(nil), rows...), Row{Attrs: filterAttrs(50, 51), Feature: make([]float32, dim-1)})
	if err := s.BulkLoad(bad); err == nil {
		t.Fatal("wrong-dimension row accepted")
	}
	if st := s.Stats(); st.Images != 0 {
		t.Fatalf("failed load committed %d images", st.Images)
	}
	raw, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := raw.BulkLoad(rows); !errors.Is(err, ErrNotTrained) {
		t.Fatalf("untrained bulk load: %v, want ErrNotTrained", err)
	}
}
