package cluster

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"jdvs/internal/catalog"
	"jdvs/internal/core"
	"jdvs/internal/index"
)

func TestReindexFoldsLiveUpdates(t *testing.T) {
	c := startTestCluster(t, smallConfig())
	target := &c.Catalog.Products[4]
	if err := c.Publish(c.RemoveProductEvent(target)); err != nil {
		t.Fatal(err)
	}
	if !c.WaitForDrain(5 * time.Second) {
		t.Fatal("drain timeout")
	}
	if err := c.Reindex(); err != nil {
		t.Fatalf("Reindex: %v", err)
	}
	// The rebuilt shards must exclude the removed product's images
	// entirely ("only the valid images are used to create the full index").
	for p := 0; p < c.Partitions(); p++ {
		shard := c.Searcher(p, 0).Shard()
		for _, url := range target.ImageURLs {
			if shard.HasURL(url) {
				t.Fatalf("removed image %s present in rebuilt partition %d", url, p)
			}
		}
	}
	// And everything else survives.
	total := 0
	for p := 0; p < c.Partitions(); p++ {
		total += c.Searcher(p, 0).Shard().Stats().Images
	}
	want := 0
	for i := range c.Catalog.Products {
		if c.Catalog.Products[i].ID != target.ID {
			want += len(c.Catalog.Products[i].ImageURLs)
		}
	}
	if total != want {
		t.Fatalf("rebuilt shards hold %d images, want %d", total, want)
	}
}

func TestReindexZeroDowntimeUnderLoad(t *testing.T) {
	c := startTestCluster(t, smallConfig())
	cl, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			blob := c.Catalog.QueryImage(&c.Catalog.Products[w]).Encode()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := cl.Query(ctx, &core.QueryRequest{
					ImageBlob: blob, TopK: 5, CategoryScope: core.AllCategories,
				}); err != nil {
					t.Errorf("query failed during reindex: %v", err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 3; i++ {
		if err := c.Reindex(); err != nil {
			t.Fatalf("Reindex %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestReindexStreams runs the snapshot distribution of a full reindex
// through many small chunks and through one default-sized chunk, across
// replicas, end to end: the whole fleet must swap to streamed shards and
// answer queries afterwards.
func TestReindexStreams(t *testing.T) {
	for name, chunkSize := range map[string]int{"multiChunk": 2048, "oneChunk": 0} {
		t.Run(name, func(t *testing.T) { testReindexStreams(t, chunkSize) })
	}
}

func testReindexStreams(t *testing.T, chunkSize int) {
	cfg := smallConfig()
	cfg.Replicas = 2
	cfg.SnapshotChunkSize = chunkSize
	c := startTestCluster(t, cfg)

	target := &c.Catalog.Products[7]
	if err := c.Publish(c.RemoveProductEvent(target)); err != nil {
		t.Fatal(err)
	}
	if !c.WaitForDrain(5 * time.Second) {
		t.Fatal("drain timeout")
	}
	if err := c.Reindex(); err != nil {
		t.Fatalf("Reindex: %v", err)
	}

	// Every replica of every partition installed a streamed snapshot and
	// excludes the removed product.
	for p := 0; p < c.Partitions(); p++ {
		for r := 0; r < c.Replicas(); r++ {
			s := c.Searcher(p, r)
			if got := s.SnapshotLoads(); got != 1 {
				t.Fatalf("p%d r%d SnapshotLoads = %d, want 1", p, r, got)
			}
			if got := s.LoadSessions(); got != 0 {
				t.Fatalf("p%d r%d has %d sessions left", p, r, got)
			}
			for _, url := range target.ImageURLs {
				if s.Shard().HasURL(url) {
					t.Fatalf("removed image %s survived the streamed reindex on p%d r%d", url, p, r)
				}
			}
		}
	}

	// Queries still flow through the full topology.
	cl, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	alive := &c.Catalog.Products[10]
	resp, err := cl.Query(ctx, &core.QueryRequest{
		ImageBlob: c.Catalog.QueryImage(alive).Encode(), TopK: 5, CategoryScope: core.AllCategories,
	})
	if err != nil {
		t.Fatalf("query after streamed reindex: %v", err)
	}
	if len(resp.Hits) == 0 {
		t.Fatal("no hits after streamed reindex")
	}
}

func TestStartPeriodicReindex(t *testing.T) {
	cfg := Config{
		Partitions: 2,
		NLists:     16,
		Catalog:    catalog.Config{Products: 120, Categories: 4, Seed: 53},
	}
	c := startTestCluster(t, cfg)

	target := &c.Catalog.Products[2]
	if err := c.Publish(c.RemoveProductEvent(target)); err != nil {
		t.Fatal(err)
	}
	if !c.WaitForDrain(5 * time.Second) {
		t.Fatal("drain timeout")
	}

	var errMu sync.Mutex
	var cycleErr error
	stop := c.StartPeriodicReindex(50*time.Millisecond, func(err error) {
		errMu.Lock()
		cycleErr = err
		errMu.Unlock()
	})
	defer stop()

	// Within a few cycles the removed product must be physically absent
	// from the served shards (not merely invalid).
	deadline := time.Now().Add(5 * time.Second)
	for {
		gone := true
		for p := 0; p < c.Partitions(); p++ {
			shard := c.Searcher(p, 0).Shard()
			for _, url := range target.ImageURLs {
				if shard.HasURL(url) {
					gone = false
				}
			}
		}
		if gone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("periodic reindex never rebuilt the shards")
		}
		time.Sleep(10 * time.Millisecond)
	}
	stop()
	stop() // idempotent
	errMu.Lock()
	defer errMu.Unlock()
	if cycleErr != nil {
		t.Fatalf("reindex cycle error: %v", cycleErr)
	}
}

// TestReindexCarriesCoveredOffsetsAndPQ: the rebuilt shards a Reindex
// distributes must carry the replayed queue offsets (so lagging real-time
// consumers skip the covered span) and, when configured, the product
// quantizer — both surviving the chunked push to every searcher.
func TestReindexCarriesCoveredOffsetsAndPQ(t *testing.T) {
	cfg := smallConfig()
	cfg.PQSubvectors = 16
	cfg.SnapshotChunkSize = 16 << 10 // force multi-chunk pushes
	c := startTestCluster(t, cfg)

	// Generate some post-bootstrap traffic, drain it, then rebuild.
	target := &c.Catalog.Products[2]
	if err := c.Publish(c.UpdateAttrsEvent(target, 7, 8, 9)); err != nil {
		t.Fatal(err)
	}
	if !c.WaitForDrain(5 * time.Second) {
		t.Fatal("drain timeout")
	}
	if err := c.Reindex(); err != nil {
		t.Fatalf("Reindex: %v", err)
	}
	for p := 0; p < c.Partitions(); p++ {
		wantOff, err := c.Queue.Len("product-updates", p)
		if err != nil {
			t.Fatal(err)
		}
		shard := c.Searcher(p, 0).Shard()
		if got := shard.CoveredOffset(); got != wantOff {
			t.Fatalf("partition %d pushed covered offset %d, want %d", p, got, wantOff)
		}
		if !shard.PQEnabled() {
			t.Fatalf("partition %d lost PQ through reindex push", p)
		}
		if st := shard.Stats(); st.PQCodes != st.Images {
			t.Fatalf("partition %d: %d codes for %d images after push", p, st.PQCodes, st.Images)
		}
	}
}

// requireListMajor fails unless the shard's image IDs ascend with inverted
// list — the layout full indexing gives a shard (index.Shard.BulkLoad).
func requireListMajor(t *testing.T, label string, s *index.Shard) {
	t.Helper()
	prev := 0
	for id := 0; id < s.Stats().Images; id++ {
		l := s.Codebook().Assign(s.Feature(core.ImageID(id)))
		if l < prev {
			t.Fatalf("%s: image %d sits in list %d, after an image of list %d", label, id, l, prev)
		}
		prev = l
	}
}

// TestFullIndexLayoutReachesEveryReplica: the list-major layout of a full
// build is what every serving shard holds — the built shard, the replica
// cloned from it at start-up, and both after a Reindex push.
func TestFullIndexLayoutReachesEveryReplica(t *testing.T) {
	cfg := smallConfig()
	cfg.Replicas = 2
	cfg.PQSubvectors = 16
	c := startTestCluster(t, cfg)
	check := func(stage string) {
		for p := 0; p < c.Partitions(); p++ {
			for r := 0; r < c.Replicas(); r++ {
				shard := c.Searcher(p, r).Shard()
				if shard.Stats().Images == 0 {
					t.Fatalf("%s: partition %d replica %d is empty", stage, p, r)
				}
				requireListMajor(t, fmt.Sprintf("%s partition %d replica %d", stage, p, r), shard)
			}
		}
	}
	check("start")
	if err := c.Reindex(); err != nil {
		t.Fatalf("Reindex: %v", err)
	}
	check("reindex")
}
