package cluster

import (
	"context"
	"sync"
	"testing"
	"time"

	"jdvs/internal/catalog"
	"jdvs/internal/core"
	"jdvs/internal/msg"
	"jdvs/internal/workload"
)

func startTestCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := Start(cfg)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

func smallConfig() Config {
	return Config{
		Partitions: 3,
		Brokers:    2,
		Blenders:   2,
		NLists:     16,
		Catalog:    catalog.Config{Products: 150, Categories: 6, Seed: 37},
	}
}

func TestTopologyShape(t *testing.T) {
	c := startTestCluster(t, smallConfig())
	if c.Partitions() != 3 || c.Replicas() != 1 {
		t.Fatalf("topology %d/%d", c.Partitions(), c.Replicas())
	}
	if c.FrontendAddr() == "" {
		t.Fatal("no frontend address")
	}
	// Every partition's searcher holds some images, and together they hold
	// every valid catalog image exactly once.
	total := 0
	for p := 0; p < c.Partitions(); p++ {
		st := c.Searcher(p, 0).Shard().Stats()
		if st.Images == 0 {
			t.Fatalf("partition %d is empty — hash placement broken", p)
		}
		total += st.Images
	}
	wantImages := 0
	for i := range c.Catalog.Products {
		wantImages += len(c.Catalog.Products[i].ImageURLs)
	}
	if total != wantImages {
		t.Fatalf("shards hold %d images, catalog has %d", total, wantImages)
	}
}

func TestQueryThroughFullStack(t *testing.T) {
	c := startTestCluster(t, smallConfig())
	cl, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	hits := 0
	const trials = 20
	for i := 0; i < trials; i++ {
		target := &c.Catalog.Products[i*7%len(c.Catalog.Products)]
		resp, err := cl.Query(ctx, &core.QueryRequest{
			ImageBlob:     c.Catalog.QueryImage(target).Encode(),
			TopK:          10,
			CategoryScope: core.AllCategories,
		})
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		for _, h := range resp.Hits {
			if h.ProductID == target.ID {
				hits++
				break
			}
		}
	}
	// Recall across the full stack: query photos are noisy, so demand a
	// strong majority rather than perfection.
	if hits < trials*8/10 {
		t.Fatalf("recall %d/%d through full stack", hits, trials)
	}
}

func TestReplicasServeAfterPrimaryDeath(t *testing.T) {
	cfg := smallConfig()
	cfg.Replicas = 2
	c := startTestCluster(t, cfg)
	cl, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// Kill the primary replica of every partition.
	for p := 0; p < c.Partitions(); p++ {
		c.Searcher(p, 0).Close()
	}
	target := &c.Catalog.Products[0]
	resp, err := cl.Query(ctx, &core.QueryRequest{
		ImageBlob:     c.Catalog.QueryImage(target).Encode(),
		TopK:          5,
		CategoryScope: core.AllCategories,
	})
	if err != nil {
		t.Fatalf("query with all primaries dead: %v", err)
	}
	if len(resp.Hits) == 0 {
		t.Fatal("no hits from replicas")
	}
}

func TestRealTimeUpdateVisibleThroughStack(t *testing.T) {
	c := startTestCluster(t, smallConfig())
	cl, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	target := &c.Catalog.Products[9]
	// Attribute update: new sales figure must appear in results.
	if err := c.Publish(c.UpdateAttrsEvent(target, 123456, 88, 777)); err != nil {
		t.Fatal(err)
	}
	if !c.WaitForDrain(5 * time.Second) {
		t.Fatal("drain timeout")
	}
	resp, err := cl.Query(ctx, &core.QueryRequest{
		ImageBlob:     c.Catalog.QueryImage(target).Encode(),
		TopK:          10,
		CategoryScope: core.AllCategories,
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, h := range resp.Hits {
		if h.ProductID == target.ID {
			found = true
			if h.Sales != 123456 || h.Praise != 88 || h.PriceCents != 777 {
				t.Fatalf("stale attributes in results: %+v", h)
			}
		}
	}
	if !found {
		t.Fatal("target product not in results")
	}
}

func TestOnAppliedObserver(t *testing.T) {
	var mu sync.Mutex
	counts := map[string]int{}
	cfg := smallConfig()
	cfg.OnApplied = func(u *msg.ProductUpdate, kind string, reused bool, lat time.Duration) {
		mu.Lock()
		counts[kind]++
		mu.Unlock()
	}
	c := startTestCluster(t, cfg)

	target := &c.Catalog.Products[1]
	if err := c.Publish(c.RemoveProductEvent(target)); err != nil {
		t.Fatal(err)
	}
	if err := c.Publish(c.AddProductEvent(target)); err != nil {
		t.Fatal(err)
	}
	if !c.WaitForDrain(5 * time.Second) {
		t.Fatal("drain timeout")
	}
	mu.Lock()
	defer mu.Unlock()
	n := len(target.ImageURLs)
	if counts["deletion"] != n || counts["addition"] != n {
		t.Fatalf("observer counts = %v, want %d each", counts, n)
	}
}

// TestWaitForDrainUnderFreshAdditions: the update mix lists brand-new
// products into Catalog.Products, so the bootstrap message count has to be
// the one recorded at Start — recomputed from the grown catalog it cancels
// exactly the events still waiting, and WaitForDrain reports a drained
// queue while nothing has been applied.
func TestWaitForDrainUnderFreshAdditions(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	open := func() { once.Do(func() { close(gate) }) }
	cfg := smallConfig()
	// Hold every partition's real-time loop right after its first event.
	cfg.OnApplied = func(*msg.ProductUpdate, string, bool, time.Duration) { <-gate }
	c := startTestCluster(t, cfg)
	t.Cleanup(open) // runs before c.Close, which waits for the loops

	gen := workload.NewMix(workload.MixConfig{AddWeight: 1, FreshAddFraction: 1, Seed: 5}, c.Catalog, c.Images)
	events := int64(0)
	for i := 0; i < 20; i++ {
		u, _, fresh, err := gen.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !fresh {
			t.Fatalf("event %d is not a fresh-product addition", i)
		}
		if err := c.Publish(u); err != nil {
			t.Fatal(err)
		}
		events += int64(len(u.ImageURLs))
	}
	if c.WaitForDrain(200 * time.Millisecond) {
		t.Fatal("WaitForDrain reported a drained queue with fresh additions still unapplied")
	}
	open()
	if !c.WaitForDrain(5 * time.Second) {
		t.Fatal("drain timeout")
	}
	applied := int64(0)
	for p := 0; p < c.Partitions(); p++ {
		applied += c.Searcher(p, 0).Applied()
	}
	if applied != events {
		t.Fatalf("WaitForDrain returned with %d of %d events applied", applied, events)
	}
}

// A message the real-time loop consumes without applying — here an
// addition whose image cannot be resolved — is still drained.
func TestWaitForDrainPastRejectedUpdate(t *testing.T) {
	c := startTestCluster(t, smallConfig())
	bad := c.AddProductEvent(&c.Catalog.Products[0])
	bad.ImageURLs = []string{"jfs://nowhere/missing.jpg"}
	if err := c.Publish(bad); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if err := c.Publish(c.UpdateAttrsEvent(&c.Catalog.Products[i], 7, 7, 7)); err != nil {
			t.Fatal(err)
		}
	}
	if !c.WaitForDrain(2 * time.Second) {
		t.Fatal("WaitForDrain timed out with an empty backlog")
	}
	rejected := int64(0)
	for p := 0; p < c.Partitions(); p++ {
		rejected += c.Searcher(p, 0).ApplyErrors()
	}
	if rejected != 1 {
		t.Fatalf("%d updates rejected, want the one unresolvable addition", rejected)
	}
}

func TestFeatureReuseAcrossRemoveReAdd(t *testing.T) {
	c := startTestCluster(t, smallConfig())
	extractionsAfterBootstrap := c.Extractor.Calls()

	// Remove and re-add: zero new extractions (features cached in both the
	// shard and the feature DB).
	target := &c.Catalog.Products[5]
	if err := c.Publish(c.RemoveProductEvent(target)); err != nil {
		t.Fatal(err)
	}
	if err := c.Publish(c.AddProductEvent(target)); err != nil {
		t.Fatal(err)
	}
	if !c.WaitForDrain(5 * time.Second) {
		t.Fatal("drain timeout")
	}
	if got := c.Extractor.Calls(); got != extractionsAfterBootstrap {
		t.Fatalf("re-add extracted features: %d calls, was %d", got, extractionsAfterBootstrap)
	}
}

func TestBrokerPartitionAssignmentCoversAll(t *testing.T) {
	cfg := smallConfig()
	cfg.Partitions = 5
	cfg.Brokers = 2
	c := startTestCluster(t, cfg)
	cl, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// Query products until we have seen hits from every partition: proves
	// the broker subsets jointly cover all partitions.
	seen := map[core.PartitionID]bool{}
	for i := 0; i < len(c.Catalog.Products) && len(seen) < 5; i += 3 {
		target := &c.Catalog.Products[i]
		resp, err := cl.Query(ctx, &core.QueryRequest{
			ImageBlob:     c.Catalog.QueryImage(target).Encode(),
			TopK:          10,
			CategoryScope: core.AllCategories,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range resp.Hits {
			seen[h.Image.Partition] = true
		}
	}
	if len(seen) != 5 {
		t.Fatalf("hits from %d partitions, want 5 (broker assignment gap)", len(seen))
	}
}

// TestHedgingThroughFullStack runs a replicated cluster whose injected
// slow replica (SlowReplicaDelay on the last replica of each partition)
// delays every one of its searches, and checks that the brokers' hedged
// requests keep full-stack query latency at the fast replica's level once
// the latency windows are warm — the end-to-end version of the broker
// package's hedge tests.
func TestHedgingThroughFullStack(t *testing.T) {
	cfg := Config{
		Partitions: 2,
		Replicas:   2,
		Brokers:    1,
		Blenders:   1,
		NLists:     16,
		Catalog:    catalog.Config{Products: 80, Categories: 4, Seed: 11},
		// The slow replica answers every search 150ms late; with a 50/50
		// fast/slow sample mix, trigger at p40 — safely inside the fast
		// mass even if a window snapshot happens to hold a few more slow
		// samples than fast ones (the production default p95 targets rare
		// tails, not a half-slow fixture).
		SlowReplicaDelay:    150 * time.Millisecond,
		SlowReplicaFraction: 1,
		HedgeQuantile:       40,
		HedgeMinDelay:       2 * time.Millisecond,
		HedgeMaxFraction:    1,
		HedgeWarmup:         8,
	}
	c := startTestCluster(t, cfg)
	cl, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	query := func(i int) time.Duration {
		target := &c.Catalog.Products[i%len(c.Catalog.Products)]
		startAt := time.Now()
		resp, err := cl.Query(ctx, &core.QueryRequest{
			ImageBlob:     c.Catalog.QueryImage(target).Encode(),
			TopK:          5,
			CategoryScope: core.AllCategories,
		})
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if len(resp.Hits) == 0 {
			t.Fatalf("query %d returned no hits", i)
		}
		return time.Since(startAt)
	}

	// Warm every partition group past its window refresh interval.
	for i := 0; i < 40; i++ {
		query(i)
	}
	// The 100ms threshold sits far above fast-path full-stack latency even
	// under the race detector's slowdown, and well below the 150ms
	// injected mode.
	slowCount := 0
	for i := 0; i < 20; i++ {
		if query(40+i) > 100*time.Millisecond {
			slowCount++
		}
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var hedges, wins int64
	for _, br := range st.Brokers {
		hedges += br.Hedges
		wins += br.HedgeWins
	}
	if hedges == 0 || wins == 0 {
		t.Fatalf("no hedging through the full stack: %+v", st.Brokers)
	}
	// Without hedging, every query whose round-robin primary is the slow
	// replica (half of them, per partition) would take 150ms+. With
	// hedging, the occasional straggler is tolerated but the pattern must
	// be broken.
	if slowCount > 5 {
		t.Fatalf("%d/20 post-warmup queries still ran at slow-replica latency; hedging ineffective\n%+v", slowCount, st.Brokers)
	}
}

// TestQueryThroughFullStackPQ runs the full-stack recall check with the
// searchers on the product-quantized ADC scan path: every shard must carry
// codes in lockstep and end-to-end recall must hold up through the
// over-fetch + exact re-rank.
func TestQueryThroughFullStackPQ(t *testing.T) {
	cfg := smallConfig()
	cfg.PQSubvectors = 16
	c := startTestCluster(t, cfg)
	for p := 0; p < c.Partitions(); p++ {
		shard := c.Searcher(p, 0).Shard()
		if !shard.PQEnabled() {
			t.Fatalf("partition %d serving without PQ", p)
		}
		if st := shard.Stats(); st.PQCodes != st.Images {
			t.Fatalf("partition %d: %d codes for %d images", p, st.PQCodes, st.Images)
		}
	}
	cl, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	hits := 0
	const trials = 20
	for i := 0; i < trials; i++ {
		target := &c.Catalog.Products[i*7%len(c.Catalog.Products)]
		resp, err := cl.Query(ctx, &core.QueryRequest{
			ImageBlob:     c.Catalog.QueryImage(target).Encode(),
			TopK:          10,
			CategoryScope: core.AllCategories,
		})
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		for _, h := range resp.Hits {
			if h.ProductID == target.ID {
				hits++
				break
			}
		}
	}
	if hits < trials*8/10 {
		t.Fatalf("recall %d/%d through full stack with PQ", hits, trials)
	}
}
