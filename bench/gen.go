package main

import (
	"math/rand"

	"jdvs/internal/catalog"
	"jdvs/internal/core"
	"jdvs/internal/workload"
)

// traffic is a workload's pool of query images, generated from the seed
// before any update stream owns the catalog. The program under test only
// ever sees these blobs.
type traffic struct {
	blobs    [][]byte
	products []uint64 // the product each blob is a photo of
	cats     []int32
	scoped   bool
	zipfS    float64
	seed     int64
}

func makeTraffic(sp spec, cat *catalog.Catalog, seed int64) *traffic {
	t := &traffic{scoped: sp.scoped, zipfS: sp.zipfS, seed: seed}
	t.blobs, t.cats = workload.MakeScopedQueryBlobs(cat, sp.pool, seed)
	// The helper does not say which product it photographed; it draws one
	// index per blob from rand.NewSource(seed), so the same draws name
	// them. The quality phase checks the result (self-hit rate).
	rng := rand.New(rand.NewSource(seed))
	for range t.blobs {
		t.products = append(t.products, cat.Products[rng.Intn(len(cat.Products))].ID)
	}
	return t
}

// query builds the request for pool entry i.
func (t *traffic) query(i int) *core.QueryRequest {
	q := &core.QueryRequest{ImageBlob: t.blobs[i], TopK: topK, CategoryScope: core.AllCategories}
	if t.scoped {
		q.CategoryScope = t.cats[i]
		q.MinPriceCents = bandMinCents
		q.MaxPriceCents = bandMaxCents
	}
	return q
}

// picker draws pool indices for one stream of requests. Streams of one run
// differ by their number, so two clients never send the same sequence.
type picker struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	n    int
}

func (t *traffic) picker(stream int) *picker {
	p := &picker{rng: rand.New(rand.NewSource(t.seed + int64(stream+1)*7919)), n: len(t.blobs)}
	if t.zipfS > 1 && p.n > 1 {
		p.zipf = rand.NewZipf(p.rng, t.zipfS, 1, uint64(p.n-1))
	}
	return p
}

func (p *picker) next() int {
	if p.zipf != nil {
		return int(p.zipf.Uint64())
	}
	return p.rng.Intn(p.n)
}
