// Command jdvs-indexer runs the offline full indexing pipeline (Figs. 2–3):
// it generates the synthetic catalog, replays the listing events through
// the feature pipeline exactly as production full indexing replays the
// day's message log, and writes one snapshot file per index partition,
// ready for jdvsd searchers to serve.
//
//	jdvs-indexer -out /tmp/jdvs -partitions 4 -products 5000 -seed 1
//
// With -pq-subvectors it also trains one product quantizer and writes
// every partition's codes into its snapshot; searchers serving those
// snapshots scan ADC codes, the others scan exact floats.
//
// The catalog parameters (products, categories, seed) and the feature
// parameters (dim, feature-seed) must match across jdvs-indexer, jdvsd
// blenders and jdvs-client — they define the shared synthetic world that
// stands in for JD's image corpus and production CNN.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"jdvs/internal/catalog"
	"jdvs/internal/cnn"
	"jdvs/internal/featuredb"
	"jdvs/internal/imagestore"
	"jdvs/internal/indexer"
	"jdvs/internal/mq"
	"jdvs/internal/msg"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "jdvs-indexer:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		out         = flag.String("out", "jdvs-index", "output directory for partition snapshots")
		partitions  = flag.Int("partitions", 4, "number of index partitions")
		products    = flag.Int("products", 5_000, "catalog size")
		categories  = flag.Int("categories", 12, "catalog categories")
		seed        = flag.Int64("seed", 1, "catalog seed")
		dim         = flag.Int("dim", cnn.DefaultDim, "feature dimensionality (must match blenders; searchers read it from the snapshot)")
		featureSeed = flag.Int64("feature-seed", 42, "CNN weight seed (must match blenders)")
		nlists      = flag.Int("nlists", 64, "IVF inverted lists per partition (searchers read it from the snapshot)")
		pqM         = flag.Int("pq-subvectors", 0, "product-quantization code bytes per image: train one quantizer shared by every partition and write its codes into each snapshot, so searchers serve the ADC scan (must divide -dim; 0 = exact float scan)")
		pqBits      = flag.Int("pq-bits", 0, "PQ code bit width, with -pq-subvectors: 8 (default) = one code byte per subvector, 4 = two 16-centroid subvectors packed per byte, scanned through the blocked fast-scan kernel at half the code memory")
	)
	flag.Parse()

	start := time.Now()
	// The synthetic world: image store + feature pipeline, then the catalog
	// once the build's shape has been checked.
	images, err := imagestore.New()
	if err != nil {
		return err
	}
	defer images.Close()
	features, err := featuredb.New()
	if err != nil {
		return err
	}
	defer features.Close()
	res := &indexer.Resolver{
		DB:        features,
		Images:    images,
		Extractor: cnn.New(cnn.Config{Dim: *dim, Seed: *featureSeed}),
	}

	full, err := indexer.NewFull(indexer.FullConfig{
		Partitions:   *partitions,
		Dim:          *dim,
		NLists:       *nlists,
		PQSubvectors: *pqM,
		PQBits:       *pqBits,
		Seed:         *featureSeed,
	}, res)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	cat, err := catalog.Generate(catalog.Config{
		Products: *products, Categories: *categories, Seed: *seed,
	}, images)
	if err != nil {
		return fmt.Errorf("generate catalog: %w", err)
	}

	// The "day's message log": the listing event for every product, which
	// the full build then replays.
	q := mq.New()
	defer q.Close()
	if err := q.CreateTopic(indexer.UpdatesTopic, *partitions); err != nil {
		return err
	}
	for i := range cat.Products {
		if _, err := indexer.RouteUpdate(q, catalogAddEvent(&cat.Products[i], uint64(i+1))); err != nil {
			return fmt.Errorf("feed: %w", err)
		}
	}
	shards, cb, err := full.Build(q)
	if err != nil {
		return fmt.Errorf("full build: %w", err)
	}

	totalImages := 0
	for p, s := range shards {
		path := filepath.Join(*out, fmt.Sprintf("part%d.snap", p))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := s.WriteSnapshot(f); err != nil {
			f.Close()
			return fmt.Errorf("snapshot partition %d: %w", p, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		st := s.Stats()
		totalImages += st.Images
		fmt.Printf("partition %d: %6d images, %6d valid -> %s\n", p, st.Images, st.ValidImages, path)
	}
	fmt.Printf("\nfull index built in %s: %d images across %d partitions, codebook %dx%d\n",
		time.Since(start).Round(time.Millisecond), totalImages, *partitions, cb.K, cb.Dim)
	fmt.Printf("serve with: jdvsd -role searcher -partition <p> -snapshot %s/part<p>.snap\n", *out)
	return nil
}

func catalogAddEvent(p *catalog.Product, seq uint64) *msg.ProductUpdate {
	return &msg.ProductUpdate{
		Type:       msg.TypeAddProduct,
		ProductID:  p.ID,
		Category:   p.Category,
		Sales:      p.Sales,
		Praise:     p.Praise,
		PriceCents: p.PriceCents,
		ImageURLs:  append([]string(nil), p.ImageURLs...),
		Seq:        seq,
	}
}
