package index

import (
	"fmt"
	"math/rand"
	"testing"

	"jdvs/internal/core"
	"jdvs/internal/pq"
)

// modelImage is the reference state for one image URL.
type modelImage struct {
	id    core.ImageID
	attrs core.Attrs
	valid bool
}

// TestShardMatchesModel drives a shard through long random operation
// sequences (insert fresh, re-insert, remove by URL and by product, update
// attrs by URL and by product) and checks it against a plain-map reference
// model after every operation batch. This is the invariant the whole
// real-time indexing path rests on: the shard is a faithful, queryable
// materialisation of the event stream. Trials rotate through the three
// scan paths — exact, 8-bit ADC, 4-bit ADC — so the per-list code stores
// ride the same operation mix as the structures they must stay in
// lockstep with.
func TestShardMatchesModel(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		trial := trial
		bits := []int{0, 8, 4}[trial%3]
		t.Run(fmt.Sprintf("trial=%d/bits=%d", trial, bits), func(t *testing.T) {
			t.Parallel()
			runShardModelTrial(t, int64(trial), bits)
		})
	}
}

func runShardModelTrial(t *testing.T, seed int64, bits int) {
	s, rng := testShard(t, 8)
	rng = rand.New(rand.NewSource(seed*31 + 7))
	if bits != 0 {
		train := make([]float32, 0, 500*testDim)
		for i := 0; i < 500; i++ {
			train = append(train, randFeature(rng)...)
		}
		cb, err := pq.Train(pq.Config{Dim: testDim, M: 4, Bits: bits, Seed: seed}, train)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SetPQCodebook(cb); err != nil {
			t.Fatal(err)
		}
	}

	model := make(map[string]*modelImage) // url → state
	products := make(map[uint64][]string) // product → urls
	var urls []string                     // insertion order, for random picks
	newAttrs := func(pid uint64, url string) core.Attrs {
		return core.Attrs{
			ProductID:  pid,
			Sales:      uint32(rng.Intn(100000)),
			Praise:     uint32(rng.Intn(101)),
			PriceCents: uint32(rng.Intn(1000000)),
			Category:   uint16(rng.Intn(5)),
			URL:        url,
		}
	}

	const ops = 2000
	nextPID := uint64(1)
	for op := 0; op < ops; op++ {
		switch k := rng.Intn(10); {
		case k < 4 || len(urls) == 0: // insert a fresh image
			pid := nextPID
			if rng.Intn(3) > 0 && len(products) > 0 {
				// Sometimes attach another image to an existing product.
				for p := range products {
					pid = p
					break
				}
			} else {
				nextPID++
			}
			url := fmt.Sprintf("jfs://model/%d-%d.jpg", seed, len(urls))
			a := newAttrs(pid, url)
			id, reused, err := s.Insert(a, randFeature(rng))
			if err != nil {
				t.Fatalf("op %d insert: %v", op, err)
			}
			if reused {
				t.Fatalf("op %d: fresh insert reported reuse", op)
			}
			model[url] = &modelImage{id: id, attrs: a, valid: true}
			products[pid] = append(products[pid], url)
			urls = append(urls, url)

		case k < 6: // re-insert an existing image (reuse path)
			url := urls[rng.Intn(len(urls))]
			m := model[url]
			pid := m.attrs.ProductID
			if rng.Intn(3) == 0 { // sometimes re-list under a different product
				pid = nextPID
				nextPID++
			}
			a := newAttrs(pid, url)
			id, reused, err := s.Insert(a, nil)
			if err != nil {
				t.Fatalf("op %d re-insert: %v", op, err)
			}
			if !reused || id != m.id {
				t.Fatalf("op %d: reuse broken (id %d vs %d, reused=%v)", op, id, m.id, reused)
			}
			if pid != m.attrs.ProductID {
				old := m.attrs.ProductID
				kept := products[old][:0]
				for _, u := range products[old] {
					if u != url {
						kept = append(kept, u)
					}
				}
				if len(kept) == 0 {
					delete(products, old)
				} else {
					products[old] = kept
				}
				products[pid] = append(products[pid], url)
				m.attrs.ProductID = pid
			}
			m.attrs.Sales, m.attrs.Praise, m.attrs.PriceCents = a.Sales, a.Praise, a.PriceCents
			m.attrs.Category = a.Category
			m.valid = true

		case k < 7: // remove one image by URL
			url := urls[rng.Intn(len(urls))]
			m := model[url]
			changed, err := s.RemoveImageURL(url)
			if err != nil {
				t.Fatalf("op %d remove url: %v", op, err)
			}
			if changed != m.valid {
				t.Fatalf("op %d: remove reported %v, model valid=%v", op, changed, m.valid)
			}
			m.valid = false

		case k < 8: // remove a whole product
			url := urls[rng.Intn(len(urls))]
			pid := model[url].attrs.ProductID
			if _, err := s.RemoveProduct(pid); err != nil {
				t.Fatalf("op %d remove product: %v", op, err)
			}
			for _, u := range products[pid] {
				model[u].valid = false
			}

		case k < 9: // update attrs by URL
			url := urls[rng.Intn(len(urls))]
			m := model[url]
			sales, praise, price := uint32(rng.Intn(1000)), uint32(rng.Intn(101)), uint32(rng.Intn(10000))
			category := uint16(rng.Intn(5))
			if err := s.UpdateAttrsURL(url, sales, praise, price, category); err != nil {
				t.Fatalf("op %d update url: %v", op, err)
			}
			m.attrs.Sales, m.attrs.Praise, m.attrs.PriceCents = sales, praise, price
			m.attrs.Category = category

		default: // update attrs product-wide
			url := urls[rng.Intn(len(urls))]
			pid := model[url].attrs.ProductID
			sales, praise, price := uint32(rng.Intn(1000)), uint32(rng.Intn(101)), uint32(rng.Intn(10000))
			category := uint16(rng.Intn(5))
			if _, err := s.UpdateAttrs(pid, sales, praise, price, category); err != nil {
				t.Fatalf("op %d update product: %v", op, err)
			}
			for _, u := range products[pid] {
				m := model[u]
				m.attrs.Sales, m.attrs.Praise, m.attrs.PriceCents = sales, praise, price
				m.attrs.Category = category
			}
		}

		// Spot-check a few random URLs after every operation.
		for probe := 0; probe < 3 && len(urls) > 0; probe++ {
			url := urls[rng.Intn(len(urls))]
			m := model[url]
			if got := s.Valid(m.id); got != m.valid {
				t.Fatalf("op %d: url %s validity %v, model %v", op, url, got, m.valid)
			}
			a, ok := s.Attrs(m.id)
			if !ok {
				t.Fatalf("op %d: url %s attrs missing", op, url)
			}
			if a != m.attrs {
				t.Fatalf("op %d: url %s attrs %+v, model %+v", op, url, a, m.attrs)
			}
		}
	}

	// Full sweep at the end.
	validCount := 0
	for url, m := range model {
		if s.Valid(m.id) != m.valid {
			t.Fatalf("final: url %s validity mismatch", url)
		}
		if m.valid {
			validCount++
		}
		a, _ := s.Attrs(m.id)
		if a != m.attrs {
			t.Fatalf("final: url %s attrs %+v, model %+v", url, a, m.attrs)
		}
	}
	st := s.Stats()
	if st.Images != len(model) {
		t.Fatalf("final: shard has %d images, model %d", st.Images, len(model))
	}
	if st.ValidImages != validCount {
		t.Fatalf("final: shard has %d valid, model %d", st.ValidImages, validCount)
	}

	// Every valid image is findable by self-query at full probe width;
	// every invalid one is not.
	var reqs []*core.SearchRequest
	var asked []*modelImage
	for url, m := range model {
		if len(reqs) >= 50 {
			break
		}
		f := s.Feature(m.id)
		if f == nil {
			t.Fatalf("final: url %s lost its feature row", url)
		}
		reqs = append(reqs, &core.SearchRequest{Feature: f, TopK: len(model), NProbe: 8, Category: -1})
		asked = append(asked, m)
	}
	for i, req := range reqs {
		resp, err := s.Search(req)
		if err != nil {
			t.Fatal(err)
		}
		m := asked[i]
		found := false
		for _, h := range resp.Hits {
			if h.Image.Local == m.id {
				found = true
			}
		}
		if found != m.valid {
			t.Fatalf("final: url %s searchable=%v, model valid=%v", m.attrs.URL, found, m.valid)
		}
	}
}
