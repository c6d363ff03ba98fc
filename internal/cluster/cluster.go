// Package cluster wires the full system of Fig. 1 into a running topology:
// a synthetic catalog feeding the message queue, the full-indexing
// bootstrap, P×R searcher nodes (P partitions × R replicas), brokers over
// partition subsets, blenders over all brokers, and one front-end load
// balancer — all communicating over real TCP sockets.
//
// The default topology mirrors the paper's testbed shape (§3.2: 1 Nginx
// front end, 6 blender/broker servers, 20 searchers) scaled to whatever the
// caller asks for.
package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"jdvs/internal/cache"
	"jdvs/internal/catalog"
	"jdvs/internal/cnn"
	"jdvs/internal/core"
	"jdvs/internal/featuredb"
	"jdvs/internal/imagestore"
	"jdvs/internal/imaging"
	"jdvs/internal/index"
	"jdvs/internal/indexer"
	"jdvs/internal/mq"
	"jdvs/internal/msg"
	"jdvs/internal/search/blender"
	"jdvs/internal/search/broker"
	"jdvs/internal/search/client"
	"jdvs/internal/search/frontend"
	"jdvs/internal/search/searcher"
)

// pushTimeout bounds the whole snapshot distribution fan-out of one
// Reindex. The chunked sender pays one round trip per chunk, so it must
// cover shard bytes / link throughput.
const pushTimeout = 5 * time.Minute

// Config sizes a cluster. Zero values take the defaults noted.
type Config struct {
	// Partitions is the number of index partitions / searcher groups
	// (default 4).
	Partitions int
	// Replicas is the number of searchers per partition (default 1) —
	// "each partition can have multiple copies for availability" (§2.4).
	Replicas int
	// Brokers is the broker count (default 2); partition p is served by
	// broker p mod Brokers.
	Brokers int
	// Blenders is the blender count (default 2).
	Blenders int

	// Dim is the feature dimensionality (default cnn.DefaultDim).
	Dim int
	// NLists is the IVF cluster count per shard (default 64).
	NLists int
	// ListInitialCap pre-allocates each inverted list in every shard
	// (index.Config.ListInitialCap; 0 takes inverted.DefaultInitialCap).
	// Size it to expected images per list to avoid migration churn while
	// bulk-loading.
	ListInitialCap int
	// DefaultNProbe is the per-searcher probe width (default 8).
	DefaultNProbe int
	// SearchWorkers is the intra-query scan parallelism inside each
	// searcher shard (index.Config.SearchWorkers): probed inverted lists
	// are striped across this many goroutines per query. 0 derives the
	// width from GOMAXPROCS; 1 scans serially.
	SearchWorkers int
	// PQSubvectors switches the searchers' shard scan to product-quantized
	// ADC codes with exact re-rank: every full build trains one quantizer
	// of this many subquantizers (indexer.FullConfig.PQSubvectors), the
	// number of code bytes per image, which must divide Dim. 0 keeps the
	// exact float scan; negative is rejected. RerankK is the ADC
	// over-fetch depth re-ranked exactly per query (0 derives 20×TopK for
	// 8-bit codes and 30×TopK for 4-bit ones).
	PQSubvectors int
	RerankK      int
	// PQBits selects the searchers' PQ code bit width
	// (indexer.FullConfig.PQBits): 8 (default) keeps byte codes, 4 packs two
	// 16-centroid subquantizers per byte and scans them through the
	// blocked fast-scan kernel — half the code memory per image at a
	// deeper default re-rank. Only meaningful with PQSubvectors set.
	PQBits int
	// SnapshotChunkSize bounds each chunk when Reindex streams the fresh
	// shards to the searcher fleet over RPC (default rpc.DefaultChunkSize;
	// see searcher.PushSnapshot). Tests use small values to force
	// multi-chunk transfers.
	SnapshotChunkSize int

	// HedgeQuantile, HedgeMinDelay and HedgeMaxFraction tune the brokers'
	// hedged replica requests (broker.Config): once a partition group's
	// observed HedgeQuantile latency elapses without an answer, the query
	// is hedged to the next replica, budgeted to HedgeMaxFraction of query
	// volume. Zero values take the broker defaults (p95 / 1ms / 0.1);
	// HedgeQuantile < 0 disables hedging. HedgeWarmup (attempts before a
	// group starts hedging; broker default 50) is exposed mainly so tests
	// and demos converge quickly.
	HedgeQuantile    float64
	HedgeMinDelay    time.Duration
	HedgeMaxFraction float64
	HedgeWarmup      int

	// FeatureCacheSize enables the blenders' content-hash feature cache
	// (blender.Config.FeatureCacheSize): a repeated query image skips
	// decode, detection, and the CNN pass. The same size also fronts the
	// indexing resolver with a content-hash cache, so a duplicate image
	// under a new URL reuses the extracted feature. 0 disables.
	FeatureCacheSize int
	// ResultCacheSize / ResultCacheMaxLag / ResultCachePoll tune the
	// brokers' watermark-invalidated result cache (broker.Config fields of
	// the same names): up to ResultCacheSize encoded pages per broker,
	// served only while no covered shard's applied offset has advanced
	// more than ResultCacheMaxLag past the page's snapshot, with
	// watermarks re-read every ResultCachePoll. 0 disables the cache.
	ResultCacheSize   int
	ResultCacheMaxLag int64
	ResultCachePoll   time.Duration

	// SlowReplicaDelay and SlowReplicaFraction inject artificial latency
	// into the LAST replica of every partition (searcher.Config
	// SearchDelay/SearchDelayFraction): roughly SlowReplicaFraction of
	// that replica's searches sleep SlowReplicaDelay. A fault injector for
	// demonstrating hedging end-to-end (jdvs-bench -experiment hedge); zero
	// disables. With Replicas == 1 the only replica is the slow one.
	SlowReplicaDelay    time.Duration
	SlowReplicaFraction float64

	// FeatureSeed seeds the shared CNN so all tiers embed identically.
	FeatureSeed int64
	// ExtractWork is the simulated CNN cost factor (extra forward passes
	// per extraction; default 0).
	ExtractWork int

	// Catalog configures the synthetic corpus indexed at bootstrap.
	Catalog catalog.Config

	// OnApplied observes applied real-time updates on the primary replica
	// of every partition (harnesses build Table 1 / Fig. 11 from it).
	OnApplied searcher.AppliedFunc
}

func (c *Config) fill() {
	if c.Partitions <= 0 {
		c.Partitions = 4
	}
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	if c.Brokers <= 0 {
		c.Brokers = 2
	}
	if c.Brokers > c.Partitions {
		c.Brokers = c.Partitions
	}
	if c.Blenders <= 0 {
		c.Blenders = 2
	}
	if c.Dim <= 0 {
		c.Dim = cnn.DefaultDim
	}
	if c.NLists <= 0 {
		c.NLists = 64
	}
	if c.DefaultNProbe <= 0 {
		c.DefaultNProbe = 8
	}
}

// fullConfig is the full-build configuration this cluster runs at
// bootstrap and at every Reindex.
func (c *Config) fullConfig() indexer.FullConfig {
	return indexer.FullConfig{
		Partitions: c.Partitions,
		Shard: index.Config{
			Dim:            c.Dim,
			NLists:         c.NLists,
			ListInitialCap: c.ListInitialCap,
			DefaultNProbe:  c.DefaultNProbe,
			SearchWorkers:  c.SearchWorkers,
			RerankK:        c.RerankK,
		},
		PQSubvectors: c.PQSubvectors,
		PQBits:       c.PQBits,
		Seed:         c.FeatureSeed,
	}
}

// Cluster is a running system.
type Cluster struct {
	cfg Config

	Queue     *mq.Queue
	Images    *imagestore.Store
	Features  *featuredb.DB
	Extractor *cnn.Extractor
	Catalog   *catalog.Catalog

	resolver  *indexer.Resolver
	searchers [][]*searcher.Searcher // [partition][replica]
	brokers   []*broker.Broker
	blenders  []*blender.Blender
	front     *frontend.Frontend

	seq atomic.Uint64
}

// Start builds the corpus, runs the initial full indexing, and brings the
// whole topology up. Callers must Close the cluster.
func Start(cfg Config) (_ *Cluster, err error) {
	cfg.fill()
	images, err := imagestore.New()
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	features, err := featuredb.New()
	if err != nil {
		images.Close()
		return nil, fmt.Errorf("cluster: %w", err)
	}
	c := &Cluster{
		cfg:      cfg,
		Queue:    mq.New(),
		Images:   images,
		Features: features,
		Extractor: cnn.New(cnn.Config{
			Dim:        cfg.Dim,
			Seed:       cfg.FeatureSeed,
			WorkFactor: cfg.ExtractWork,
		}),
	}
	c.resolver = &indexer.Resolver{
		DB:        c.Features,
		Images:    c.Images,
		Extractor: c.Extractor,
		Features:  cache.New[[]float32](cfg.FeatureCacheSize),
	}
	defer func() {
		if err != nil {
			c.Close()
		}
	}()

	if err := c.Queue.CreateTopic(indexer.UpdatesTopic, cfg.Partitions); err != nil {
		return nil, err
	}

	// Corpus: generate the catalog and enqueue the initial listing events —
	// the "day's message log" the first full indexing replays.
	cat, err := catalog.Generate(cfg.Catalog, c.Images)
	if err != nil {
		return nil, fmt.Errorf("cluster: generate catalog: %w", err)
	}
	c.Catalog = cat
	for i := range cat.Products {
		if err := c.Publish(c.AddProductEvent(&cat.Products[i])); err != nil {
			return nil, fmt.Errorf("cluster: bootstrap feed: %w", err)
		}
	}

	// Full indexing (Figs. 2–3).
	full, err := indexer.NewFull(cfg.fullConfig(), c.resolver)
	if err != nil {
		return nil, err
	}
	shards, _, err := full.Build(c.Queue)
	if err != nil {
		return nil, fmt.Errorf("cluster: full indexing: %w", err)
	}

	if err := c.startTiers(shards); err != nil {
		return nil, err
	}
	return c, nil
}

// startTiers launches searchers, brokers, blenders and the frontend over
// the freshly built shards.
func (c *Cluster) startTiers(shards []*index.Shard) error {
	cfg := c.cfg

	// Searchers: replica 0 serves the built shard; further replicas load a
	// snapshot copy so they maintain independent index state.
	c.searchers = make([][]*searcher.Searcher, cfg.Partitions)
	for p := 0; p < cfg.Partitions; p++ {
		startOffset, err := c.Queue.Len(indexer.UpdatesTopic, p)
		if err != nil {
			return err
		}
		for r := 0; r < cfg.Replicas; r++ {
			shard := shards[p]
			if r > 0 {
				shard, err = cloneShard(shards[p])
				if err != nil {
					return fmt.Errorf("cluster: clone partition %d: %w", p, err)
				}
			}
			var onApplied searcher.AppliedFunc
			if r == 0 {
				onApplied = cfg.OnApplied
			}
			scfg := searcher.Config{
				Partition:   core.PartitionID(p),
				Shard:       shard,
				Resolver:    c.resolver,
				Queue:       c.Queue,
				StartOffset: startOffset,
				OnApplied:   onApplied,
			}
			if r == cfg.Replicas-1 {
				// Fault injection targets the last replica of each
				// partition (the only one when Replicas == 1).
				scfg.SearchDelay = cfg.SlowReplicaDelay
				scfg.SearchDelayFraction = cfg.SlowReplicaFraction
			}
			s, err := searcher.New(scfg)
			if err != nil {
				return fmt.Errorf("cluster: start searcher p%d r%d: %w", p, r, err)
			}
			c.searchers[p] = append(c.searchers[p], s)
		}
	}

	// Brokers: broker j serves partitions p where p mod Brokers == j.
	for j := 0; j < cfg.Brokers; j++ {
		var groups [][]string
		for p := j; p < cfg.Partitions; p += cfg.Brokers {
			var replicas []string
			for _, s := range c.searchers[p] {
				replicas = append(replicas, s.Addr())
			}
			groups = append(groups, replicas)
		}
		b, err := broker.New(broker.Config{
			PartitionReplicas: groups,
			HedgeQuantile:     cfg.HedgeQuantile,
			HedgeMinDelay:     cfg.HedgeMinDelay,
			HedgeMaxFraction:  cfg.HedgeMaxFraction,
			HedgeWarmup:       cfg.HedgeWarmup,
			ResultCacheSize:   cfg.ResultCacheSize,
			ResultCacheMaxLag: cfg.ResultCacheMaxLag,
			ResultCachePoll:   cfg.ResultCachePoll,
		})
		if err != nil {
			return fmt.Errorf("cluster: start broker %d: %w", j, err)
		}
		c.brokers = append(c.brokers, b)
	}

	brokerAddrs := make([]string, len(c.brokers))
	for i, b := range c.brokers {
		brokerAddrs[i] = b.Addr()
	}

	classifier, err := c.buildClassifier()
	if err != nil {
		return err
	}
	for i := 0; i < cfg.Blenders; i++ {
		bl, err := blender.New(blender.Config{
			Brokers:          brokerAddrs,
			Extractor:        c.Extractor,
			Classifier:       classifier,
			FeatureCacheSize: cfg.FeatureCacheSize,
		})
		if err != nil {
			return fmt.Errorf("cluster: start blender %d: %w", i, err)
		}
		c.blenders = append(c.blenders, bl)
	}

	blenderAddrs := make([]string, len(c.blenders))
	for i, b := range c.blenders {
		blenderAddrs[i] = b.Addr()
	}
	front, err := frontend.New(frontend.Config{Blenders: blenderAddrs})
	if err != nil {
		return fmt.Errorf("cluster: start frontend: %w", err)
	}
	c.front = front
	return nil
}

// buildClassifier derives category prototypes by extracting features from a
// clean (noise-free) render of each category's prototype latent.
func (c *Cluster) buildClassifier() (*cnn.Classifier, error) {
	if len(c.Catalog.Categories) == 0 {
		return nil, errors.New("cluster: catalog has no categories")
	}
	dim := c.Extractor.Dim()
	protos := make([]float32, 0, len(c.Catalog.Categories)*dim)
	rng := rand.New(rand.NewSource(c.cfg.FeatureSeed + 1))
	for _, cat := range c.Catalog.Categories {
		img := imaging.Generate(rng, cat.Prototype, cat.ID, imaging.GenConfig{Noise: 1e-4, PayloadBytes: 64})
		f, err := c.Extractor.Extract(img)
		if err != nil {
			return nil, fmt.Errorf("cluster: prototype extract: %w", err)
		}
		protos = append(protos, f...)
	}
	return cnn.NewClassifier(dim, protos)
}

// cloneShard deep-copies a shard via its snapshot codec.
func cloneShard(s *index.Shard) (*index.Shard, error) {
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		return nil, err
	}
	dup, err := index.New(s.Config())
	if err != nil {
		return nil, err
	}
	if err := dup.LoadSnapshot(&buf); err != nil {
		return nil, err
	}
	return dup, nil
}

// FrontendAddr returns the cluster's single client-facing endpoint.
func (c *Cluster) FrontendAddr() string { return c.front.Addr() }

// Client dials the frontend.
func (c *Cluster) Client() (*client.Client, error) {
	return client.Dial(c.front.Addr(), 4)
}

// Searcher returns the replica r searcher of partition p (for failure
// injection in tests).
func (c *Cluster) Searcher(p, r int) *searcher.Searcher { return c.searchers[p][r] }

// Partitions returns the partition count.
func (c *Cluster) Partitions() int { return c.cfg.Partitions }

// Replicas returns the per-partition replica count.
func (c *Cluster) Replicas() int { return c.cfg.Replicas }

// nextSeq mints a monotone event sequence number.
func (c *Cluster) nextSeq() uint64 { return c.seq.Add(1) }

// AddProductEvent builds the listing event for p (all images).
func (c *Cluster) AddProductEvent(p *catalog.Product) *msg.ProductUpdate {
	return &msg.ProductUpdate{
		Type:           msg.TypeAddProduct,
		ProductID:      p.ID,
		Category:       p.Category,
		Sales:          p.Sales,
		Praise:         p.Praise,
		PriceCents:     p.PriceCents,
		ImageURLs:      append([]string(nil), p.ImageURLs...),
		EventTimeNanos: time.Now().UnixNano(),
		Seq:            c.nextSeq(),
	}
}

// RemoveProductEvent builds the delisting event for p.
func (c *Cluster) RemoveProductEvent(p *catalog.Product) *msg.ProductUpdate {
	return &msg.ProductUpdate{
		Type:           msg.TypeRemoveProduct,
		ProductID:      p.ID,
		ImageURLs:      append([]string(nil), p.ImageURLs...),
		EventTimeNanos: time.Now().UnixNano(),
		Seq:            c.nextSeq(),
	}
}

// UpdateAttrsEvent builds a numeric attribute update event for p.
func (c *Cluster) UpdateAttrsEvent(p *catalog.Product, sales, praise, price uint32) *msg.ProductUpdate {
	return &msg.ProductUpdate{
		Type:           msg.TypeUpdateAttrs,
		ProductID:      p.ID,
		Category:       p.Category,
		Sales:          sales,
		Praise:         praise,
		PriceCents:     price,
		ImageURLs:      append([]string(nil), p.ImageURLs...),
		EventTimeNanos: time.Now().UnixNano(),
		Seq:            c.nextSeq(),
	}
}

// Publish routes an update event into the queue (per-image, hash placed).
func (c *Cluster) Publish(u *msg.ProductUpdate) error {
	_, err := indexer.RouteUpdate(c.Queue, u)
	return err
}

// WaitForDrain blocks until every primary searcher's applied-offset
// watermark has reached the end of its partition's log, or the timeout
// elapses, and reports whether the backlog fully drained — used by tests,
// the experiments and the freshness example to bound "sub-second update"
// claims. The watermark passes every consumed message, applied or not
// (poison, rejected by the indexer, skipped as snapshot-covered).
func (c *Cluster) WaitForDrain(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		drained := true
		for p := 0; p < c.cfg.Partitions && drained; p++ {
			produced, err := c.Queue.Len(indexer.UpdatesTopic, p)
			if err != nil {
				return false
			}
			drained = c.searchers[p][0].AppliedOffset() >= produced
		}
		if drained {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Reindex performs the periodic full indexing cycle of §2.2 against the
// complete update log and distributes the fresh shards to every running
// searcher over the chunked snapshot-streaming RPC path — the same wire
// machinery a multi-host deployment uses — hot-swapping each with zero
// downtime: in-flight searches finish on the old index, new searches see
// the new one. Each replica materialises its own shard from the stream, so
// replicas never share index state. Real-time consumers keep their queue
// positions; events they re-apply on top of the fresh index are idempotent
// (additions reuse, deletions flip bits, attribute updates overwrite).
func (c *Cluster) Reindex() error {
	full, err := indexer.NewFull(c.cfg.fullConfig(), c.resolver)
	if err != nil {
		return err
	}
	shards, _, err := full.Build(c.Queue)
	if err != nil {
		return fmt.Errorf("cluster: reindex: %w", err)
	}
	// Push every partition to every replica concurrently. Serialising a
	// shard is read-only, so one built shard can feed all its replicas'
	// streams at once.
	ctx, cancel := context.WithTimeout(context.Background(), pushTimeout)
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, 1)
	for p := 0; p < c.cfg.Partitions; p++ {
		for r, s := range c.searchers[p] {
			wg.Add(1)
			go func(p, r int, s *searcher.Searcher) {
				defer wg.Done()
				if err := searcher.PushSnapshot(ctx, s.Addr(), shards[p], c.cfg.SnapshotChunkSize); err != nil {
					select {
					case errs <- fmt.Errorf("cluster: reindex push p%d r%d: %w", p, r, err):
					default:
					}
				}
			}(p, r, s)
		}
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

// StartPeriodicReindex launches the periodic full indexing cycle of §2.2
// ("building the full index for all images is performed every week") at
// the given interval. The returned stop function halts the cycle and waits
// for any in-flight rebuild; errors from individual cycles go to onErr
// (nil to ignore).
//
// Each cycle builds inside the serving process, competing with it for
// every core; docs/OPERATIONS.md ("Serving during an in-process reindex")
// gives the measured cost and the remedy, a separate jdvs-indexer process
// plus a push. No binary starts it; it stays until that path exists.
func (c *Cluster) StartPeriodicReindex(interval time.Duration, onErr func(error)) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
			}
			if err := c.Reindex(); err != nil && onErr != nil {
				onErr(err)
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
		})
	}
}

// Close tears the topology down in dependency order.
func (c *Cluster) Close() {
	if c.front != nil {
		c.front.Close()
	}
	for _, b := range c.blenders {
		b.Close()
	}
	for _, b := range c.brokers {
		b.Close()
	}
	if c.Queue != nil {
		c.Queue.Close() // unblocks searcher RT loops
	}
	for _, group := range c.searchers {
		for _, s := range group {
			s.Close()
		}
	}
	c.Images.Close()
	c.Features.Close()
}
