// Package indexer implements the indexing sub-system of Figs. 2–4: the
// feature-resolution protocol shared by both indexing paths, the event
// routing that expands product updates into per-image messages placed by
// hash(URL), and the periodic full indexing that rebuilds every partition
// from the day's message log.
package indexer

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sort"

	"jdvs/internal/cache"
	"jdvs/internal/cnn"
	"jdvs/internal/core"
	"jdvs/internal/featuredb"
	"jdvs/internal/imagestore"
	"jdvs/internal/index"
	"jdvs/internal/kmeans"
	"jdvs/internal/mq"
	"jdvs/internal/msg"
	"jdvs/internal/parallel"
	"jdvs/internal/pq"
)

// Resolver implements check-before-extract (Fig. 2): "the feature
// extraction process first checks if the image's features have been
// extracted through a distributed key-value store. If it is a new image,
// the features are extracted and stored in the feature database."
type Resolver struct {
	DB        *featuredb.DB
	Images    *imagestore.Store
	Extractor *cnn.Extractor
	// Features, when non-nil, is a content-hash-keyed feature cache layered
	// in front of the extractor: the feature DB dedups by URL, this dedups
	// by image bytes, so the same photo re-shared under a different URL
	// still skips the CNN pass.
	Features *cache.Cache[[]float32]
}

// Resolve returns the feature for url, extracting and storing it on first
// sight. reused reports whether extraction was avoided. The URL is
// normalised first so equivalent re-shared spellings share one entry.
// attrs is not read: the feature DB holds features only, and the shard
// takes attributes from the event. The parameter stays because
// bench/layers.go calls Resolve with it.
func (r *Resolver) Resolve(url string, attrs core.Attrs) (feature []float32, reused bool, err error) {
	var blob []byte
	return r.resolve(url, &blob)
}

// resolve is Resolve reading a missing image's blob into *blob, which it
// grows when too small and leaves for the caller's next call: a full-build
// worker reads every blob it extracts into one buffer. Neither the
// extractor nor the caches keep the blob.
func (r *Resolver) resolve(url string, blob *[]byte) (feature []float32, reused bool, err error) {
	url = core.NormalizeURL(url)
	return r.DB.GetOrCompute(url, func() ([]float32, error) {
		b, err := r.Images.ReadInto(*blob, url)
		if err != nil {
			return nil, err
		}
		*blob = b
		var key string
		if r.Features != nil {
			sum := sha256.Sum256(b)
			key = string(sum[:])
			if f, ok := r.Features.Get(key); ok {
				return f, nil
			}
		}
		f, err := r.Extractor.ExtractBytes(b)
		if err != nil {
			return nil, err
		}
		if r.Features != nil {
			r.Features.Put(key, f, int64(4*len(f)))
		}
		return f, nil
	})
}

// UpdatesTopic is the canonical topic name carrying product update events.
const UpdatesTopic = "product-updates"

// RouteUpdate expands one product-level update into per-image messages and
// produces each onto the partition selected by hashing its image URL — the
// same placement rule the index uses (§2.4), so every event lands on the
// searcher that owns the image. URLs are normalised here, at the mouth of
// the pipeline, so every downstream identity — partition hash, forward
// index, feature DB — sees one canonical spelling per image. An update the
// message codec cannot carry exactly (a normalised URL over
// msg.MaxURLBytes) is rejected whole, before anything is produced. It
// returns the number of per-image messages produced.
func RouteUpdate(q *mq.Queue, u *msg.ProductUpdate) (int, error) {
	if len(u.ImageURLs) == 0 {
		return 0, errors.New("indexer: update carries no image URLs")
	}
	per := *u
	urls := make([]string, len(u.ImageURLs))
	for i, url := range u.ImageURLs {
		urls[i] = core.NormalizeURL(url)
		per.ImageURLs = urls[i : i+1]
		if err := per.Check(); err != nil {
			return 0, fmt.Errorf("indexer: route product %d: %w", u.ProductID, err)
		}
	}
	n := 0
	for i, url := range urls {
		per.ImageURLs = urls[i : i+1]
		if _, _, err := q.ProduceKeyed(UpdatesTopic, url, per.Encode()); err != nil {
			return n, fmt.Errorf("indexer: route %s: %w", url, err)
		}
		n++
	}
	return n, nil
}

// Apply applies one decoded per-image update event to a shard, resolving
// features through the resolver exactly per Fig. 6's decision tree. It
// returns the kind of operation performed ("addition", "deletion",
// "update") and whether stored features/records were reused.
func Apply(s *index.Shard, r *Resolver, u *msg.ProductUpdate) (kind string, reused bool, err error) {
	switch u.Type {
	case msg.TypeAddProduct:
		if len(u.ImageURLs) != 1 {
			return "", false, fmt.Errorf("indexer: addition carries %d urls, want 1", len(u.ImageURLs))
		}
		url := u.ImageURLs[0]
		attrs := core.Attrs{
			ProductID:  u.ProductID,
			Sales:      u.Sales,
			Praise:     u.Praise,
			PriceCents: u.PriceCents,
			Category:   u.Category,
			URL:        url,
		}
		// Fresh listings and re-listings both resolve through the feature
		// DB (check-before-extract, Fig. 2). For a re-listed URL this is a
		// cache hit — extraction is still avoided, which is the reuse §2.3
		// promises ("we simply update its validity in the bitmap and reuse
		// its images' features") — but the resolved vector must reach the
		// shard: Insert compares it against the stored row and re-indexes
		// the image at its new location when the feature DB entry changed
		// since the URL was last indexed. The old fast path passed nil
		// here, which kept the §2.3 bitmap flip but meant a changed vector
		// never took effect until the next full rebuild.
		feature, hadFeatures, err := r.Resolve(url, attrs)
		if err != nil {
			return "", false, fmt.Errorf("indexer: resolve %s: %w", url, err)
		}
		_, _, err = s.Insert(attrs, feature)
		return "addition", hadFeatures, err

	case msg.TypeRemoveProduct:
		if len(u.ImageURLs) != 1 {
			return "", false, fmt.Errorf("indexer: deletion carries %d urls, want 1", len(u.ImageURLs))
		}
		_, err := s.RemoveImageURL(u.ImageURLs[0])
		if err != nil && errors.Is(err, index.ErrUnknownURL) {
			// Deleting an image this shard never indexed: tolerated (the
			// product may have been listed before the index epoch).
			return "deletion", false, nil
		}
		return "deletion", false, err

	case msg.TypeUpdateAttrs:
		if len(u.ImageURLs) != 1 {
			return "", false, fmt.Errorf("indexer: attr update carries %d urls, want 1", len(u.ImageURLs))
		}
		err := s.UpdateAttrsURL(u.ImageURLs[0], u.Sales, u.Praise, u.PriceCents, u.Category)
		if err != nil && errors.Is(err, index.ErrUnknownURL) {
			return "update", false, nil
		}
		return "update", false, err

	default:
		return "", false, fmt.Errorf("indexer: unknown event type %d", u.Type)
	}
}

// FullConfig parameterises a full indexing run.
type FullConfig struct {
	// Partitions is the number of index partitions to build. Required.
	Partitions int
	// Dim is the feature dimensionality and NLists the number of IVF
	// lists (k-means K) of every shard the build makes; both required.
	// They travel in the codebook, so a loaded snapshot carries them.
	Dim    int
	NLists int
	// Shard holds each partition's serving settings (index.Config).
	Shard index.Config
	// PQSubvectors, when positive, makes each build train one product
	// quantizer of that many subquantizers (M code bytes per image at 8
	// bits; must divide Dim) and install it on every shard, which
	// then scans ADC codes. 0 builds exact-scan shards; negative is
	// rejected.
	PQSubvectors int
	// PQBits is the quantizer's centroid index width: 8 (256 centroids
	// per subquantizer, the default when zero) or 4 (16 centroids, two
	// subquantizers packed per code byte and scanned through the blocked
	// fast-scan kernel; needs an even PQSubvectors). Setting it without
	// PQSubvectors is an error.
	PQBits int
	// TrainSample caps how many image features train the codebook
	// (default 10,000).
	TrainSample int
	// Seed drives k-means.
	Seed int64
}

// FullIndexer is the periodic full indexing of §2.2: it replays the day's
// message log in order, reconstructs final product state, resolves features
// (reusing previously extracted ones), trains the codebook, and builds
// fresh per-partition shards containing only the currently valid images.
type FullIndexer struct {
	cfg FullConfig
	res *Resolver
}

// NewFull returns a full indexer.
func NewFull(cfg FullConfig, res *Resolver) (*FullIndexer, error) {
	if cfg.Partitions <= 0 {
		return nil, errors.New("indexer: Partitions must be positive")
	}
	if cfg.TrainSample <= 0 {
		cfg.TrainSample = 10_000
	}
	if cfg.Dim <= 0 || cfg.NLists <= 0 {
		return nil, errors.New("indexer: full build needs Dim and NLists")
	}
	// Zero PQSubvectors and PQBits build without a quantizer. Anything
	// else, a negative M or a width set without M included, must be a
	// shape pq.Train accepts.
	if cfg.PQSubvectors != 0 || cfg.PQBits != 0 {
		pc := cfg.pqConfig()
		if err := pc.Validate(); err != nil {
			return nil, fmt.Errorf("indexer: %w", err)
		}
	}
	return &FullIndexer{cfg: cfg, res: res}, nil
}

// pqConfig is the product-quantizer shape every build trains.
func (c *FullConfig) pqConfig() pq.Config {
	return pq.Config{Dim: c.Dim, M: c.PQSubvectors, Bits: c.PQBits, Seed: c.Seed}
}

// imageState is the replayed final state of one image URL.
type imageState struct {
	attrs core.Attrs
	valid bool
	seq   uint64
}

// Build replays every partition of the updates topic from offset 0 and
// returns freshly built shards (index p serves partition p) plus the
// codebook they share. Each shard records the queue offset its build
// covered (Shard.CoveredOffset), so distributing its snapshot tells the
// receiving searcher how far its real-time consumer may skip. When
// PQSubvectors is set, one product quantizer is trained on
// the same sample as the IVF codebook and installed on every shard, so
// ADC codes agree across replicas.
func (fi *FullIndexer) Build(q *mq.Queue) ([]*index.Shard, *kmeans.Codebook, error) {
	states, covered, err := fi.replay(q)
	if err != nil {
		return nil, nil, err
	}

	// Iterate the replayed states in sorted URL order: map order would make
	// the training sample, and the order of images inside an inverted list,
	// differ run to run, and a full build must be a pure function of the
	// log — two builds of the same log serve byte-identical results
	// (replica equality, experiment result audits). Image IDs themselves
	// are handed out list-major by Shard.BulkLoad below, in this order
	// within each list.
	urls := make([]string, 0, len(states))
	for url, st := range states {
		if st.valid {
			urls = append(urls, url)
		}
	}
	sort.Strings(urls)

	// Resolve features for valid images (check-before-extract: almost all
	// of these hit the feature DB because the real-time path already
	// extracted them). Each URL resolves on its own, so they resolve
	// across the cores into slots indexed by sorted-URL position, each
	// worker reading blobs into one reused buffer; the first failing URL
	// in sorted order is reported.
	feats := make([][]float32, len(urls))
	errs := make([]error, len(urls))
	parallel.For(len(urls), func(lo, hi int) {
		var blob []byte
		for i := lo; i < hi; i++ {
			feats[i], _, errs[i] = fi.res.resolve(urls[i], &blob)
		}
	})
	for i, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("indexer: full build resolve %s: %w", urls[i], err)
		}
	}

	// The training sample is the first TrainSample features in sorted-URL
	// order, picked serially.
	perPartition := make([][]index.Row, fi.cfg.Partitions)
	train := make([]float32, 0, fi.cfg.TrainSample*fi.cfg.Dim)
	trained := 0
	for i, url := range urls {
		st := states[url]
		p := int(mq.PartitionFor(url, fi.cfg.Partitions))
		perPartition[p] = append(perPartition[p], index.Row{Attrs: st.attrs, Feature: feats[i]})
		if trained < fi.cfg.TrainSample {
			train = append(train, feats[i]...)
			trained++
		}
	}
	if trained == 0 {
		return nil, nil, errors.New("indexer: no valid images to index")
	}

	cb, err := kmeans.Train(kmeans.Config{
		K:    fi.cfg.NLists,
		Dim:  fi.cfg.Dim,
		Seed: fi.cfg.Seed,
	}, train)
	if err != nil {
		return nil, nil, fmt.Errorf("indexer: train codebook: %w", err)
	}
	var pcb *pq.Codebook
	if fi.cfg.PQSubvectors > 0 {
		pcb, err = pq.Train(fi.cfg.pqConfig(), train)
		if err != nil {
			return nil, nil, fmt.Errorf("indexer: train pq codebook: %w", err)
		}
	}

	shards := make([]*index.Shard, fi.cfg.Partitions)
	for p := range shards {
		s, err := index.New(fi.cfg.Shard)
		if err != nil {
			return nil, nil, err
		}
		if err := s.SetCodebook(cb); err != nil {
			return nil, nil, err
		}
		if pcb != nil {
			if err := s.SetPQCodebook(pcb); err != nil {
				return nil, nil, err
			}
		}
		if err := s.BulkLoad(perPartition[p]); err != nil {
			return nil, nil, fmt.Errorf("indexer: full build partition %d: %w", p, err)
		}
		if p < len(covered) {
			s.SetCoveredOffset(covered[p])
		}
		shards[p] = s
	}
	return shards, cb, nil
}

// replay folds the day's log into final per-image state, processing each
// partition's messages in order. It also returns, per partition, the next
// offset a consumer resuming after this replay should read.
func (fi *FullIndexer) replay(q *mq.Queue) (map[string]*imageState, []int64, error) {
	nParts := q.Partitions(UpdatesTopic)
	if nParts == 0 {
		return nil, nil, fmt.Errorf("indexer: topic %q does not exist", UpdatesTopic)
	}
	states := make(map[string]*imageState)
	covered := make([]int64, nParts)
	for p := 0; p < nParts; p++ {
		c, err := q.NewConsumer(UpdatesTopic, p, 0)
		if err != nil {
			return nil, nil, err
		}
		for {
			msgs, err := c.Poll(1024, 0)
			if err != nil {
				return nil, nil, fmt.Errorf("indexer: replay partition %d: %w", p, err)
			}
			if len(msgs) == 0 {
				break
			}
			for _, m := range msgs {
				u, err := msg.Decode(m.Payload)
				if err != nil {
					return nil, nil, fmt.Errorf("indexer: replay decode (partition %d offset %d): %w", p, m.Offset, err)
				}
				fi.fold(states, u)
			}
		}
		covered[p] = c.Offset()
	}
	return states, covered, nil
}

func (fi *FullIndexer) fold(states map[string]*imageState, u *msg.ProductUpdate) {
	for _, url := range u.ImageURLs {
		st := states[url]
		if st == nil {
			st = &imageState{}
			states[url] = st
		}
		switch u.Type {
		case msg.TypeAddProduct:
			st.valid = true
			st.attrs = core.Attrs{
				ProductID:  u.ProductID,
				Sales:      u.Sales,
				Praise:     u.Praise,
				PriceCents: u.PriceCents,
				Category:   u.Category,
				URL:        url,
			}
		case msg.TypeRemoveProduct:
			st.valid = false
		case msg.TypeUpdateAttrs:
			if st.attrs.URL != "" {
				st.attrs.Sales = u.Sales
				st.attrs.Praise = u.Praise
				st.attrs.PriceCents = u.PriceCents
				st.attrs.Category = u.Category
			}
		}
		st.seq = u.Seq
	}
}
