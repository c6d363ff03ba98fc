package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"jdvs/internal/core"
	"jdvs/internal/topk"
	"jdvs/internal/vecmath"
)

// filterAttrs gives image i deterministic skewed attributes: category 1
// covers ~0.1% of the corpus, category 2 ~1%, category 3 ~10%, category 4
// the rest; prices cycle through [100, 9999) cents and sales through
// [0, 100). The skew lets one corpus exercise every selectivity band the
// pushdown is specified for.
func filterAttrs(i, n int) core.Attrs {
	cat := uint16(4)
	switch {
	case i < n/1000:
		cat = 1
	case i < n/1000+n/100:
		cat = 2
	case i < n/1000+n/100+n/10:
		cat = 3
	}
	return core.Attrs{
		ProductID:  uint64(i + 1),
		URL:        fmt.Sprintf("jfs://filter/%d.jpg", i),
		Category:   cat,
		Sales:      uint32(i % 100),
		PriceCents: uint32(100 + (i*37)%9900),
	}
}

// buildFilterShard builds one shard over a clustered corpus with
// filterAttrs attributes; pqM > 0 trains a product quantizer of bits-wide
// codes.
func buildFilterShard(t testing.TB, n, dim, nlists, pqM, bits int) (*Shard, [][]float32) {
	t.Helper()
	rng := rand.New(rand.NewSource(19))
	feats := clusteredFeatures(rng, n, dim, 24, 0.25)
	train := make([]float32, 0, min(n, 2000)*dim)
	for i := 0; i < min(n, 2000); i++ {
		train = append(train, feats[i]...)
	}
	s, err := New(Config{Dim: dim, NLists: nlists, DefaultNProbe: 8, SearchWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Train(train, 5); err != nil {
		t.Fatal(err)
	}
	if pqM > 0 {
		trainPQ(t, s, pqM, bits, train, 5)
	}
	for i, f := range feats {
		if _, _, err := s.Insert(filterAttrs(i, n), f); err != nil {
			t.Fatal(err)
		}
	}
	return s, feats
}

// filterOracle is the post-filter reference: exact L2 over every valid
// committed image — or, with lists non-nil, over the members of those
// inverted lists only — the filter applied afterwards, then the k nearest
// by (distance, id). Over every image it is the page the exact plan must
// return; over a probe set, the page an exact scan of those lists must.
func filterOracle(s *Shard, req *core.SearchRequest, lists []int) []topk.Item {
	var cands []topk.Item
	consider := func(id uint32) bool {
		a, ok := s.Attrs(id)
		h := core.Hit{Sales: a.Sales, PriceCents: a.PriceCents, Category: a.Category}
		if ok && s.Valid(id) && req.AdmitsHit(&h) {
			cands = append(cands, topk.Item{ID: uint64(id), Dist: vecmath.L2Squared(req.Feature, s.Feature(id))})
		}
		return true
	}
	if lists == nil {
		for id := uint32(0); id < uint32(s.fwd.Len()); id++ {
			consider(id)
		}
	} else {
		for _, l := range lists {
			s.inv.Scan(l, consider)
		}
	}
	topk.Sort(cands)
	return cands[:min(len(cands), req.TopK)]
}

// requirePage fails unless resp's hits are exactly want — same images,
// same distances, same order.
func requirePage(t *testing.T, label string, resp *core.SearchResponse, want []topk.Item) {
	t.Helper()
	if len(resp.Hits) != len(want) {
		t.Fatalf("%s: %d hits, oracle %d", label, len(resp.Hits), len(want))
	}
	for i, h := range resp.Hits {
		if uint64(h.Image.Local) != want[i].ID || h.Dist != want[i].Dist {
			t.Fatalf("%s: hit %d is (%d, %g), oracle (%d, %g)", label, i, h.Image.Local, h.Dist, want[i].ID, want[i].Dist)
		}
	}
}

func filterQuery(rng *rand.Rand, feats [][]float32, dim int) []float32 {
	base := feats[rng.Intn(len(feats))]
	q := make([]float32, dim)
	for d := range q {
		q[d] = base[d] + float32(rng.NormFloat64()*0.05)
	}
	return q
}

// TestFilteredExactMatchesOracle: on the exact float path with every list
// probed, the pushed-down filter must return exactly what post-filtering a
// brute-force scan returns — across the selectivity sweep (0.1%, 1%, 10%,
// 100%), attribute predicates, and their combination. The 0.1% category
// holds fewer images than k, so it also pins the fewer-than-k contract:
// all matches come back.
func TestFilteredExactMatchesOracle(t *testing.T) {
	const n, dim, nlists = 4000, 32, 16
	s, feats := buildFilterShard(t, n, dim, nlists, 0, 0)
	cases := []struct {
		name string
		req  core.SearchRequest
	}{
		{"category=0.1%", core.SearchRequest{Category: 1}},
		{"category=1%", core.SearchRequest{Category: 2}},
		{"category=10%", core.SearchRequest{Category: 3}},
		{"category=100%", core.SearchRequest{Category: -1}},
		{"priceband", core.SearchRequest{Category: -1, MinPriceCents: 2000, MaxPriceCents: 5000}},
		{"minsales", core.SearchRequest{Category: -1, MinSales: 50}},
		{"combined", core.SearchRequest{Category: 3, MinPriceCents: 1000, MaxPriceCents: 8000, MinSales: 20}},
	}
	rng := rand.New(rand.NewSource(23))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for qi := 0; qi < 10; qi++ {
				req := tc.req
				req.Feature = filterQuery(rng, feats, dim)
				req.TopK = 10
				req.NProbe = nlists // full probe: the scan sees every admitted image
				resp, err := s.Search(&req)
				if err != nil {
					t.Fatal(err)
				}
				want := filterOracle(s, &req, nil)
				if len(resp.Hits) != len(want) {
					t.Fatalf("query %d: %d hits, oracle %d", qi, len(resp.Hits), len(want))
				}
				wantSet := make(map[uint64]bool, len(want))
				for _, it := range want {
					wantSet[it.ID] = true
				}
				for _, h := range resp.Hits {
					if !wantSet[uint64(h.Image.Local)] {
						t.Fatalf("query %d: hit %d not in oracle set", qi, h.Image.Local)
					}
					if !req.AdmitsHit(&h) {
						t.Fatalf("query %d: hit %d violates the filter", qi, h.Image.Local)
					}
				}
			}
		})
	}
	// The 0.1% category holds n/1000 images — fewer than k.
	if got := n / 1000; got >= 10 {
		t.Fatalf("corpus too large for the fewer-than-k case: category 1 has %d images", got)
	}
}

// TestFilteredEmptyCategory: a category no committed row has ever carried
// must return an empty page without probing a single list — the admission
// bitmap prices it at zero matches before probe selection. Categories
// outside the uint16 range are equally unsatisfiable.
func TestFilteredEmptyCategory(t *testing.T) {
	const n, dim, nlists = 1000, 16, 8
	s, feats := buildFilterShard(t, n, dim, nlists, 0, 0)
	for _, cat := range []int32{9, 77, 1 << 20} {
		req := &core.SearchRequest{Feature: feats[0], TopK: 10, NProbe: nlists, Category: cat}
		resp, err := s.Search(req)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Hits) != 0 {
			t.Fatalf("category %d: %d hits, want 0", cat, len(resp.Hits))
		}
		if resp.Probed != 0 || resp.Scanned != 0 {
			t.Fatalf("category %d: probed %d scanned %d, want 0/0", cat, resp.Probed, resp.Scanned)
		}
	}
}

// TestFilteredRecallGuardrail is the accuracy gate on filtered queries
// over a quantized shard: at 1% selectivity, recall@10 against the exact
// post-filter oracle must stay at least 0.95 and every query must fill its
// page. 1% of the corpus spread over all lists leaves too few admitted
// candidates in 8 lists; the exact plan, which scores every admitted row,
// is what makes this pass at the default probe width.
func TestFilteredRecallGuardrail(t *testing.T) {
	const n, dim, queries = 6000, 64, 60
	s, feats := buildFilterShard(t, n, dim, 32, 16, 0)
	rng := rand.New(rand.NewSource(77))
	var hit, want int
	for qi := 0; qi < queries; qi++ {
		req := &core.SearchRequest{Feature: filterQuery(rng, feats, dim), TopK: 10, NProbe: 8, Category: 2}
		resp, err := s.Search(req)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Hits) != 10 {
			t.Fatalf("query %d: %d hits, want a full page of 10", qi, len(resp.Hits))
		}
		truth := filterOracle(s, req, nil)
		truthSet := make(map[uint64]bool, len(truth))
		for _, it := range truth {
			truthSet[it.ID] = true
		}
		want += len(truth)
		for _, h := range resp.Hits {
			if truthSet[uint64(h.Image.Local)] {
				hit++
			}
		}
	}
	recall := float64(hit) / float64(want)
	t.Logf("filtered recall@10 at 1%% selectivity over %d queries: %.4f", queries, recall)
	if recall < 0.95 {
		t.Fatalf("filtered recall@10 = %.4f, want >= 0.95", recall)
	}
}

// planWidths are the three scan configurations a filtered query can meet:
// unquantised, and 4-bit and 8-bit codes (M=8 over dim 32).
var planWidths = []struct {
	name      string
	pqM, bits int
}{{"bits=0", 0, 0}, {"bits=4", 8, 4}, {"bits=8", 8, 8}}

// TestFilteredPlanMatchesOracle: a filtered query admitting no more rows
// than its probe would score takes the exact plan — no list probed, every
// admitted row scored — and returns exactly the brute-force post-filter
// page at every code width, since the plan reads raw rows, not codes. The
// 50% band is under the limit because 10 of 16 lists hold 2,500 rows; the
// 0.1% band holds fewer images than k, so all of them come back. The
// unfiltered query keeps the list scan and counts as neither.
func TestFilteredPlanMatchesOracle(t *testing.T) {
	const n, dim, nlists, nprobe, perBand = 4000, 32, 16, 10, 5
	bands := []struct {
		name     string
		req      core.SearchRequest
		admitted int
	}{
		{"selectivity=0.1%", core.SearchRequest{Category: 1}, n / 1000},
		{"selectivity=1%", core.SearchRequest{Category: 2}, n / 100},
		{"selectivity=10%", core.SearchRequest{Category: 3}, n / 10},
		{"selectivity=50%", core.SearchRequest{Category: -1, MinSales: 50}, n / 2},
	}
	for _, w := range planWidths {
		t.Run(w.name, func(t *testing.T) {
			s, feats := buildFilterShard(t, n, dim, nlists, w.pqM, w.bits)
			rng := rand.New(rand.NewSource(29))
			for _, band := range bands {
				for qi := 0; qi < perBand; qi++ {
					req := band.req
					req.Feature = filterQuery(rng, feats, dim)
					req.TopK, req.NProbe = 10, nprobe
					resp, err := s.Search(&req)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("%s query %d", band.name, qi)
					if resp.Probed != 0 || resp.Scanned != band.admitted {
						t.Fatalf("%s: probed %d scanned %d, want the exact plan's 0 lists and %d rows",
							label, resp.Probed, resp.Scanned, band.admitted)
					}
					requirePage(t, label, resp, filterOracle(s, &req, nil))
				}
			}
			plain, err := s.Search(&core.SearchRequest{Feature: feats[0], TopK: 10, NProbe: nprobe, Category: -1})
			if err != nil {
				t.Fatal(err)
			}
			if plain.Probed != nprobe {
				t.Fatalf("unfiltered query probed %d lists, want %d", plain.Probed, nprobe)
			}
			st := s.Stats()
			if want := int64(len(bands) * perBand); st.FilteredSearches != want || st.ExactPlanSearches != want {
				t.Fatalf("FilteredSearches %d ExactPlanSearches %d, want %d each (the unfiltered query counts as neither)",
					st.FilteredSearches, st.ExactPlanSearches, want)
			}
		})
	}
}

// TestExactPlanTailAndDelisted: the exact plan reads the admission bitmap
// below its coverage and checks the rows past it one by one. Rows appended
// after the cached predicate bitmap was built lie past that coverage and
// must be judged on their own attributes; rows delisted after it was built
// must not come back, because validity is intersected per query, not
// cached.
func TestExactPlanTailAndDelisted(t *testing.T) {
	const n, dim, nlists = 4000, 32, 16
	for _, w := range planWidths {
		t.Run(w.name, func(t *testing.T) {
			s, feats := buildFilterShard(t, n, dim, nlists, w.pqM, w.bits)
			rng := rand.New(rand.NewSource(31))
			req := &core.SearchRequest{
				Feature: filterQuery(rng, feats, dim), TopK: 10,
				Category: 3, MinPriceCents: 1000, MaxPriceCents: 8000,
			}
			// Builds and caches the price bitmap over the n rows.
			first, err := s.Search(req)
			if err != nil {
				t.Fatal(err)
			}
			if first.Probed != 0 || len(first.Hits) != req.TopK {
				t.Fatalf("first query: probed %d, %d hits; want the exact plan and a full page", first.Probed, len(first.Hits))
			}
			delisted := map[string]bool{first.Hits[0].URL: true, first.Hits[1].URL: true}
			for url := range delisted {
				if _, err := s.RemoveImageURL(url); err != nil {
					t.Fatal(err)
				}
			}
			// Next to the query: one image the filter admits, one in the
			// category but priced out, one priced in but outside the category.
			for i, a := range []core.Attrs{
				{ProductID: 9001, URL: "jfs://filter/tail-in.jpg", Category: 3, PriceCents: 5000},
				{ProductID: 9002, URL: "jfs://filter/tail-price.jpg", Category: 3, PriceCents: 9000},
				{ProductID: 9003, URL: "jfs://filter/tail-cat.jpg", Category: 2, PriceCents: 5000},
			} {
				f := append([]float32(nil), req.Feature...)
				f[0] += float32(i) * 1e-3
				if _, _, err := s.Insert(a, f); err != nil {
					t.Fatal(err)
				}
			}
			if adm := s.buildAdmission(req, new(searchScratch)); adm.tail >= uint32(s.fwd.Len()) {
				t.Fatalf("admission covers all %d rows; the appended ones must lie past it", s.fwd.Len())
			}
			resp, err := s.Search(req)
			if err != nil {
				t.Fatal(err)
			}
			if resp.Probed != 0 {
				t.Fatalf("probed %d lists, want the exact plan", resp.Probed)
			}
			requirePage(t, "after append and delist", resp, filterOracle(s, req, nil))
			if resp.Hits[0].ProductID != 9001 {
				t.Fatalf("top hit is product %d, want the appended match 9001", resp.Hits[0].ProductID)
			}
			for _, h := range resp.Hits {
				if delisted[h.URL] {
					t.Fatalf("delisted %s came back", h.URL)
				}
			}
		})
	}
}

// TestExactPlanBoundary pins the plan decision at its limit. One admitted
// row above it, the list scan runs as it did before the plan existed:
// nprobe lists, no widening, and on the unquantised shard exactly the
// exact scan's page over those lists. One delisting later the same query
// sits at the limit and takes the exact plan.
func TestExactPlanBoundary(t *testing.T) {
	const n, dim, nlists, nprobe, k = 4000, 32, 16, 2, 10
	const moved = 7 // a category no filterAttrs image carries
	for _, w := range planWidths {
		t.Run(w.name, func(t *testing.T) {
			s, feats := buildFilterShard(t, n, dim, nlists, w.pqM, w.bits)
			for _, c := range []struct{ nprobe, k, want int }{
				{2, 10, 500},   // what the probe scores: 2 lists of 250 rows
				{1, 10, 480},   // the page-fill term: 3·10·16 / 1
				{16, 10, 4000}, // a full probe scores every row
			} {
				if got := s.exactPlanLimit(c.nprobe, c.k); got != c.want {
					t.Fatalf("exactPlanLimit(%d, %d) = %d, want %d", c.nprobe, c.k, got, c.want)
				}
			}
			limit := s.exactPlanLimit(nprobe, k)
			// Move limit+1 images, spread over the corpus, into their own
			// category.
			var urls []string
			for i := 0; len(urls) <= limit; i += 7 {
				a := filterAttrs(i, n)
				if err := s.UpdateAttrsURL(a.URL, a.Sales, a.Praise, a.PriceCents, moved); err != nil {
					t.Fatal(err)
				}
				urls = append(urls, a.URL)
			}
			rng := rand.New(rand.NewSource(37))
			req := &core.SearchRequest{Feature: filterQuery(rng, feats, dim), TopK: k, NProbe: nprobe, Category: moved}
			scan, err := s.Search(req)
			if err != nil {
				t.Fatal(err)
			}
			if scan.Probed != nprobe {
				t.Fatalf("%d admitted rows: probed %d lists, want the list scan's %d", limit+1, scan.Probed, nprobe)
			}
			probe, _ := vecmath.TopCentroidsInto(nil, nil, req.Feature, s.codebook.Centroids, dim, nprobe)
			if w.pqM == 0 {
				requirePage(t, "list scan", scan, filterOracle(s, req, probe))
			} else {
				codes := 0
				for _, l := range probe {
					codes += s.inv.ListLen(l)
				}
				if scan.Scanned != codes {
					t.Fatalf("list scan scored %d codes, want the %d in its %d lists", scan.Scanned, codes, nprobe)
				}
			}
			if _, err := s.RemoveImageURL(urls[0]); err != nil {
				t.Fatal(err)
			}
			exact, err := s.Search(req)
			if err != nil {
				t.Fatal(err)
			}
			if exact.Probed != 0 || exact.Scanned != limit {
				t.Fatalf("%d admitted rows: probed %d scanned %d, want the exact plan's 0 and %d", limit, exact.Probed, exact.Scanned, limit)
			}
			requirePage(t, "exact plan", exact, filterOracle(s, req, nil))
		})
	}
}

// TestSearchBatchMixedPlans: one batch holding exact-plan members and list
// scan members answers each position exactly as a lone Search does, and
// the two selective members take the exact plan.
func TestSearchBatchMixedPlans(t *testing.T) {
	const n, dim, nlists = 4000, 32, 16
	for _, w := range planWidths[1:] {
		t.Run(w.name, func(t *testing.T) {
			s, feats := buildFilterShard(t, n, dim, nlists, w.pqM, w.bits)
			rng := rand.New(rand.NewSource(43))
			reqs := []*core.SearchRequest{
				{Category: 1},               // 4 rows: exact plan
				{Category: -1},              // unfiltered: list scan
				{Category: 4},               // 89% of rows: list scan
				{Category: 2, MinSales: 20}, // 32 rows: exact plan
				{Category: -1, MinSales: 5}, // 95% of rows: list scan
			}
			for _, r := range reqs {
				r.Feature, r.TopK, r.NProbe = filterQuery(rng, feats, dim), 10, 4
			}
			resps, errs := s.SearchBatch(reqs)
			exact := 0
			for i, req := range reqs {
				if errs[i] != nil {
					t.Fatalf("member %d: %v", i, errs[i])
				}
				want, err := s.Search(req)
				if err != nil {
					t.Fatal(err)
				}
				requireSameResponse(t, fmt.Sprintf("member %d", i), resps[i], want)
				if want.Probed == 0 {
					exact++
				}
			}
			if exact != 2 {
				t.Fatalf("%d members took the exact plan, want 2 of %d", exact, len(reqs))
			}
		})
	}
}

// TestFilteredAdmissionTailFallback: rows appended after a cached
// predicate bitmap was built lie beyond its coverage and must still be
// admitted (or rejected) correctly via the per-candidate fallback.
func TestFilteredAdmissionTailFallback(t *testing.T) {
	const n, dim, nlists = 1000, 16, 8
	s, feats := buildFilterShard(t, n, dim, nlists, 0, 0)
	req := &core.SearchRequest{Feature: append([]float32(nil), feats[3]...), TopK: 10, NProbe: nlists, Category: -1, MinSales: 120}
	// No image has sales ≥ 120 yet; this search materialises (and caches)
	// an all-zero predicate bitmap.
	resp, err := s.Search(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Hits) != 0 {
		t.Fatalf("pre-append search returned %d hits, want 0", len(resp.Hits))
	}
	// Append one matching and one non-matching image, both with the query
	// vector itself (distance 0 — they'd rank first if admitted).
	match := core.Attrs{ProductID: 5001, URL: "jfs://filter/tail-match.jpg", Category: 4, Sales: 150, PriceCents: 500}
	if _, _, err := s.Insert(match, req.Feature); err != nil {
		t.Fatal(err)
	}
	skew := make([]float32, dim)
	copy(skew, req.Feature)
	skew[0] += 1e-3
	miss := core.Attrs{ProductID: 5002, URL: "jfs://filter/tail-miss.jpg", Category: 4, Sales: 10, PriceCents: 500}
	if _, _, err := s.Insert(miss, skew); err != nil {
		t.Fatal(err)
	}
	resp, err = s.Search(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Hits) != 1 {
		t.Fatalf("post-append search returned %d hits, want exactly the appended match", len(resp.Hits))
	}
	if resp.Hits[0].ProductID != 5001 {
		t.Fatalf("post-append search returned product %d, want 5001", resp.Hits[0].ProductID)
	}
}

// TestFilteredSnapshotRoundtrip: a snapshot-loaded replica rebuilds its
// per-category bitmaps from the forward records and must filter exactly
// like the shard that wrote the snapshot — including after a category move
// applied on the replica.
func TestFilteredSnapshotRoundtrip(t *testing.T) {
	const n, dim, nlists = 2000, 16, 8
	s, feats := buildFilterShard(t, n, dim, nlists, 0, 0)
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	replica, err := New(Config{Dim: dim, NLists: nlists, DefaultNProbe: 8, SearchWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := replica.LoadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	check := func(stage string) {
		for qi := 0; qi < 5; qi++ {
			req := &core.SearchRequest{
				Feature: filterQuery(rng, feats, dim), TopK: 10, NProbe: nlists,
				Category: 2, MinPriceCents: 500, MaxPriceCents: 9000,
			}
			want := filterOracle(replica, req, nil)
			resp, err := replica.Search(req)
			if err != nil {
				t.Fatal(err)
			}
			if len(resp.Hits) != len(want) {
				t.Fatalf("%s: %d hits, oracle %d", stage, len(resp.Hits), len(want))
			}
			wantSet := make(map[uint64]bool, len(want))
			for _, it := range want {
				wantSet[it.ID] = true
			}
			for _, h := range resp.Hits {
				if !wantSet[uint64(h.Image.Local)] {
					t.Fatalf("%s: hit %d not in oracle set", stage, h.Image.Local)
				}
			}
		}
	}
	check("loaded")
	// Move an image between categories on the replica: bitmap maintenance
	// must hold on rebuilt directories too.
	if err := replica.UpdateAttrsURL(filterAttrs(n/2, n).URL, 5, 5, 777, 2); err != nil {
		t.Fatal(err)
	}
	check("after category move")
}

// TestFilteredConcurrentCategoryMoves runs filtered scans against a writer
// relocating images between the scanned categories — the -race stress
// for the category-bitmap publish protocol. Results during a move are
// advisory (the §2.3 visibility window), so the assertions are bounds and
// liveness, not exact sets.
func TestFilteredConcurrentCategoryMoves(t *testing.T) {
	const n, dim, nlists = 2000, 16, 8
	s, feats := buildFilterShard(t, n, dim, nlists, 0, 0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the single real-time writer
		defer wg.Done()
		rng := rand.New(rand.NewSource(2))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			url := filterAttrs(rng.Intn(n), n).URL
			cat := uint16(2 + i%2)
			if err := s.UpdateAttrsURL(url, uint32(i%100), 5, uint32(100+i%9000), cat); err != nil {
				t.Errorf("UpdateAttrsURL: %v", err)
				return
			}
		}
	}()
	var readers sync.WaitGroup
	for w := 0; w < 4; w++ {
		readers.Add(1)
		go func(w int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for qi := 0; qi < 150; qi++ {
				req := &core.SearchRequest{
					Feature: filterQuery(rng, feats, dim), TopK: 10, NProbe: nlists,
					Category: 2, MinSales: 10,
				}
				resp, err := s.Search(req)
				if err != nil {
					t.Errorf("Search: %v", err)
					return
				}
				if len(resp.Hits) > 10 {
					t.Errorf("filtered search returned %d hits, want <= 10", len(resp.Hits))
					return
				}
				for _, h := range resp.Hits {
					if h.Image.Local >= n {
						t.Errorf("hit id %d out of range", h.Image.Local)
						return
					}
				}
			}
		}(w)
	}
	readers.Wait()
	close(stop)
	wg.Wait()
}
