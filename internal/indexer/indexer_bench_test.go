package indexer

import (
	"testing"

	"jdvs/internal/catalog"
	"jdvs/internal/cnn"
	"jdvs/internal/featuredb"
	"jdvs/internal/imagestore/imagestoretest"
	"jdvs/internal/index"
	"jdvs/internal/mq"
	"jdvs/internal/msg"
)

// BenchmarkFullBuild is one full indexing run at the repo benchmark's
// scan_uniform shape: 30k products (about 60k images), 2 partitions, 64
// inverted lists, 8-bit PQ with M 16 over 64-dim features. Every iteration
// starts from an empty feature DB, so each image is read from the image
// store and extracted, as in a cluster's first build; the log, the
// catalog and the image store are built once, outside the timer. It
// covers every build stage: replay, feature resolution, IVF and PQ
// training, and the list-major bulk load of both partitions.
func BenchmarkFullBuild(b *testing.B) {
	const partitions = 2
	images := imagestoretest.New(b)
	cat, err := catalog.Generate(catalog.Config{Products: 30_000, Seed: 7}, images)
	if err != nil {
		b.Fatal(err)
	}
	q := mq.New()
	b.Cleanup(q.Close)
	if err := q.CreateTopic(UpdatesTopic, partitions); err != nil {
		b.Fatal(err)
	}
	for i := range cat.Products {
		p := &cat.Products[i]
		listing := &msg.ProductUpdate{
			Type:       msg.TypeAddProduct,
			ProductID:  p.ID,
			Category:   p.Category,
			Sales:      p.Sales,
			Praise:     p.Praise,
			PriceCents: p.PriceCents,
			ImageURLs:  p.ImageURLs,
			Seq:        uint64(i + 1),
		}
		if _, err := RouteUpdate(q, listing); err != nil {
			b.Fatal(err)
		}
	}
	extractor := cnn.New(cnn.Config{Dim: cnn.DefaultDim, Seed: 7})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// One closure per iteration, so each build's feature DB is closed
		// before the next one opens.
		func() {
			b.StopTimer()
			db, err := featuredb.New()
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			res := &Resolver{DB: db, Images: images, Extractor: extractor}
			fi, err := NewFull(FullConfig{
				Partitions:   partitions,
				Shard:        index.Config{Dim: cnn.DefaultDim, NLists: 64},
				PQSubvectors: 16,
				PQBits:       8,
				Seed:         7,
			}, res)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, _, err := fi.Build(q); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
		}()
	}
}
