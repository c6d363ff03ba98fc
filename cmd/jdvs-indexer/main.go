// Command jdvs-indexer runs the offline full indexing pipeline (Figs. 2–3):
// it generates (or re-generates) the synthetic catalog, replays the listing
// events through the feature pipeline exactly as production full indexing
// replays the day's message log, and writes one snapshot file per index
// partition, ready for jdvsd searchers to serve.
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
		saveLog     = flag.String("save-log", "", "write the day's message log to this file after feeding")
		loadLog     = flag.String("load-log", "", "replay an existing message log instead of generating listing events")
	)
	flag.Parse()

	start := time.Now()
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}

	// The synthetic world: catalog + image store + feature pipeline.
	images, err := imagestore.New()
	if err != nil {
		return err
	}
	defer images.Close()
	cat, err := catalog.Generate(catalog.Config{
		Products: *products, Categories: *categories, Seed: *seed,
	}, images)
	if err != nil {
		return fmt.Errorf("generate catalog: %w", err)
	}
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

	// The "day's message log": either replay a saved one, or feed the
	// listing event for every product, then run the full build over it.
	q := mq.New()
	defer q.Close()
	if *loadLog != "" {
		f, err := os.Open(*loadLog)
		if err != nil {
			return err
		}
		_, err = q.ReadFrom(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("load log %s: %w", *loadLog, err)
		}
		if got := q.Partitions(indexer.UpdatesTopic); got != *partitions {
			return fmt.Errorf("log %s has %d partitions, -partitions says %d", *loadLog, got, *partitions)
		}
		fmt.Printf("replaying message log %s\n", *loadLog)
	} else {
		if err := q.CreateTopic(indexer.UpdatesTopic, *partitions); err != nil {
			return err
		}
		seq := uint64(0)
		for i := range cat.Products {
			p := &cat.Products[i]
			seq++
			u := catalogAddEvent(p, seq)
			if _, err := indexer.RouteUpdate(q, u); err != nil {
				return fmt.Errorf("feed: %w", err)
			}
		}
	}
	if *saveLog != "" {
		f, err := os.Create(*saveLog)
		if err != nil {
			return err
		}
		_, err = q.WriteTo(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("save log %s: %w", *saveLog, err)
		}
		fmt.Printf("message log saved to %s\n", *saveLog)
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
