package searcher

import (
	"context"
	"encoding/json"
	"math/rand"
	"sync"
	"testing"
	"time"

	"jdvs/internal/catalog"
	"jdvs/internal/cnn"
	"jdvs/internal/core"
	"jdvs/internal/featuredb"
	"jdvs/internal/imagestore"
	"jdvs/internal/imagestore/imagestoretest"
	"jdvs/internal/index"
	"jdvs/internal/indexer"
	"jdvs/internal/kmeans"
	"jdvs/internal/mq"
	"jdvs/internal/msg"
	"jdvs/internal/rpc"
	"jdvs/internal/search"
)

const testDim = 16

type fixture struct {
	queue  *mq.Queue
	images *imagestore.Store
	res    *indexer.Resolver
	cat    *catalog.Catalog
	shard  *index.Shard
	feats  map[string][]float32 // url → feature for all indexed images
}

func newFixture(t *testing.T, products int) *fixture {
	t.Helper()
	f := &fixture{
		queue:  mq.New(),
		images: imagestoretest.New(t),
		feats:  make(map[string][]float32),
	}
	t.Cleanup(f.queue.Close)
	if err := f.queue.CreateTopic(indexer.UpdatesTopic, 1); err != nil {
		t.Fatal(err)
	}
	cat, err := catalog.Generate(catalog.Config{Products: products, Categories: 4, Seed: 19}, f.images)
	if err != nil {
		t.Fatal(err)
	}
	f.cat = cat
	db, err := featuredb.New()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	f.res = &indexer.Resolver{
		DB:        db,
		Images:    f.images,
		Extractor: cnn.New(cnn.Config{Dim: testDim, Seed: 7}),
	}
	var train []float32
	for i := range cat.Products {
		p := &cat.Products[i]
		for _, url := range p.ImageURLs {
			feat, _, err := f.res.Resolve(url, p.Attrs(url))
			if err != nil {
				t.Fatal(err)
			}
			f.feats[url] = feat
			train = append(train, feat...)
		}
	}
	shard := trainShard(t, 8, testDim, train)
	for i := range cat.Products {
		p := &cat.Products[i]
		for _, url := range p.ImageURLs {
			if _, _, err := shard.Insert(p.Attrs(url), f.feats[url]); err != nil {
				t.Fatal(err)
			}
		}
	}
	f.shard = shard
	return f
}

// trainShard returns a shard whose IVF codebook of nLists centroids kmeans
// fits on train (row-major, dim floats per row), as a full build does.
func trainShard(t testing.TB, nLists, dim int, train []float32) *index.Shard {
	t.Helper()
	s, err := index.New(index.Config{DefaultNProbe: 8})
	if err != nil {
		t.Fatal(err)
	}
	cb, err := kmeans.Train(kmeans.Config{K: nLists, Dim: dim, Seed: 1}, train)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetCodebook(cb); err != nil {
		t.Fatal(err)
	}
	return s
}

func callSearch(t *testing.T, addr string, req *core.SearchRequest) *core.SearchResponse {
	t.Helper()
	c, err := rpc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	raw, err := c.Call(context.Background(), search.MethodSearch, core.EncodeSearchRequest(req))
	if err != nil {
		t.Fatalf("search call: %v", err)
	}
	resp, err := core.DecodeSearchResponse(raw)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func callStats(t *testing.T, addr string) Stats {
	t.Helper()
	c, err := rpc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	raw, err := c.Call(context.Background(), search.MethodStats, nil)
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("stats json: %v", err)
	}
	return st
}

func TestSearchOverRPC(t *testing.T) {
	f := newFixture(t, 30)
	s, err := New(Config{Partition: 5, Shard: f.shard})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	p := &f.cat.Products[0]
	url := p.ImageURLs[0]
	resp := callSearch(t, s.Addr(), &core.SearchRequest{
		Feature: f.feats[url], TopK: 3, NProbe: 8, Category: -1,
	})
	if len(resp.Hits) == 0 {
		t.Fatal("no hits")
	}
	if resp.Hits[0].ProductID != p.ID || resp.Hits[0].Dist != 0 {
		t.Fatalf("self query hit: %+v", resp.Hits[0])
	}
	if resp.Hits[0].Image.Partition != 5 {
		t.Fatalf("partition not stamped: %+v", resp.Hits[0].Image)
	}
}

func TestRealtimeLoopAppliesUpdates(t *testing.T) {
	f := newFixture(t, 10)
	var mu sync.Mutex
	applied := map[string]int{}
	s, err := New(Config{
		Shard:    f.shard,
		Resolver: f.res,
		Queue:    f.queue,
		OnApplied: func(u *msg.ProductUpdate, kind string, reused bool, lat time.Duration) {
			mu.Lock()
			applied[kind]++
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	p := &f.cat.Products[1]
	del := &msg.ProductUpdate{
		Type: msg.TypeRemoveProduct, ProductID: p.ID,
		ImageURLs: p.ImageURLs, EventTimeNanos: time.Now().UnixNano(),
	}
	if _, err := indexer.RouteUpdate(f.queue, del); err != nil {
		t.Fatal(err)
	}
	const wait = 5 * time.Second
	deadline := time.Now().Add(wait)
	for {
		if s.Applied() >= int64(len(p.ImageURLs)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("real-time loop did not apply the deletion")
		}
		time.Sleep(time.Millisecond)
	}
	// The update latency runs from the queue's enqueue stamp: it must be
	// positive and inside the wait above (an unstamped message reads as
	// centuries).
	if st := callStats(t, s.Addr()); st.RTAvgMicros <= 0 || st.RTP99Micros >= wait.Microseconds() {
		t.Fatalf("rt latency avg %dµs p99 %dµs, want avg > 0 and p99 < %dµs", st.RTAvgMicros, st.RTP99Micros, wait.Microseconds())
	}
	// The deletion is reflected in search through the same node.
	url := p.ImageURLs[0]
	resp := callSearch(t, s.Addr(), &core.SearchRequest{Feature: f.feats[url], TopK: 10, NProbe: 8, Category: -1})
	for _, h := range resp.Hits {
		if h.ProductID == p.ID {
			t.Fatal("deleted product still searchable")
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if applied["deletion"] != len(p.ImageURLs) {
		t.Fatalf("OnApplied deletions = %d, want %d", applied["deletion"], len(p.ImageURLs))
	}
}

func TestSwapShardZeroDowntime(t *testing.T) {
	f := newFixture(t, 10)
	s, err := New(Config{Shard: f.shard})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Build a replacement shard containing a single marker product.
	next, err := index.New(index.Config{DefaultNProbe: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := next.SetCodebook(f.shard.Codebook()); err != nil {
		t.Fatal(err)
	}
	marker := core.Attrs{ProductID: 999999, URL: "jfs://marker.jpg"}
	rng := rand.New(rand.NewSource(1))
	mf := make([]float32, testDim)
	for i := range mf {
		mf[i] = float32(rng.NormFloat64())
	}
	if _, _, err := next.Insert(marker, mf); err != nil {
		t.Fatal(err)
	}

	// Queries racing with the swap must always succeed against one index or
	// the other.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	url := f.cat.Products[0].ImageURLs[0]
	go func() {
		defer wg.Done()
		c, err := rpc.Dial(s.Addr())
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, err := c.Call(context.Background(), search.MethodSearch,
				core.EncodeSearchRequest(&core.SearchRequest{Feature: f.feats[url], TopK: 1, NProbe: 8, Category: -1}))
			if err != nil {
				t.Errorf("query failed during swap: %v", err)
				return
			}
		}
	}()
	time.Sleep(10 * time.Millisecond)
	s.SwapShard(next)
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()

	resp := callSearch(t, s.Addr(), &core.SearchRequest{Feature: mf, TopK: 1, NProbe: 8, Category: -1})
	if len(resp.Hits) != 1 || resp.Hits[0].ProductID != 999999 {
		t.Fatalf("post-swap query: %+v", resp.Hits)
	}
}

func TestStatsEndpoint(t *testing.T) {
	f := newFixture(t, 5)
	// Every search sleeps 2ms, so the search-latency figures have a floor
	// the assertion below can name.
	const delay = 2 * time.Millisecond
	s, err := New(Config{Partition: 2, Shard: f.shard, SearchDelay: delay, SearchDelayFraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	url := f.cat.Products[0].ImageURLs[0]
	callSearch(t, s.Addr(), &core.SearchRequest{Feature: f.feats[url], TopK: 1, NProbe: 1, Category: -1})

	st := callStats(t, s.Addr())
	if st.Partition != 2 || st.Searches != 1 || st.Index.Images == 0 {
		t.Fatalf("stats = %+v", st)
	}
	// The histogram's buckets are ≈6% wide, the percentile their lower bound.
	if floor := delay.Microseconds(); st.SearchAvgMicros < floor || st.SearchP99Micros < floor*9/10 {
		t.Fatalf("search latency avg %dµs p99 %dµs, want both about %dµs or more", st.SearchAvgMicros, st.SearchP99Micros, floor)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil shard accepted")
	}
	f := newFixture(t, 2)
	if _, err := New(Config{Shard: f.shard, Queue: f.queue}); err == nil {
		t.Fatal("queue without resolver accepted")
	}
}

func TestPingAndDoubleClose(t *testing.T) {
	f := newFixture(t, 2)
	s, err := New(Config{Shard: f.shard})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := Ping(ctx, s.Addr()); err != nil {
		t.Fatalf("ping: %v", err)
	}
	s.Close()
	s.Close() // idempotent
	if err := Ping(ctx, s.Addr()); err == nil {
		t.Fatal("ping succeeded after close")
	}
}

func TestPoisonMessageSkipped(t *testing.T) {
	f := newFixture(t, 3)
	s, err := New(Config{Shard: f.shard, Resolver: f.res, Queue: f.queue})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Garbage payload straight into the partition.
	if _, err := f.queue.Produce(indexer.UpdatesTopic, 0, []byte("garbage")); err != nil {
		t.Fatal(err)
	}
	// Then a valid deletion: the loop must survive the poison message and
	// apply it.
	p := &f.cat.Products[0]
	if _, err := indexer.RouteUpdate(f.queue, &msg.ProductUpdate{
		Type: msg.TypeRemoveProduct, ProductID: p.ID, ImageURLs: p.ImageURLs[:1],
		EventTimeNanos: time.Now().UnixNano(),
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Applied() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("loop died on poison message")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDroppedAndApplyErrorsCounted: poison messages and indexer failures
// must leave a trace instead of vanishing silently.
func TestDroppedAndApplyErrorsCounted(t *testing.T) {
	f := newFixture(t, 3)
	s, err := New(Config{Shard: f.shard, Resolver: f.res, Queue: f.queue})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// An undecodable payload: dropped.
	if _, err := f.queue.Produce(indexer.UpdatesTopic, 0, []byte("not an update")); err != nil {
		t.Fatal(err)
	}
	// A well-formed addition whose image no store can resolve: apply error.
	if _, err := indexer.RouteUpdate(f.queue, &msg.ProductUpdate{
		Type:           msg.TypeAddProduct,
		ProductID:      987654,
		ImageURLs:      []string{"jfs://no-such-image.jpg"},
		EventTimeNanos: time.Now().UnixNano(),
	}); err != nil {
		t.Fatal(err)
	}
	// A valid deletion afterwards proves the loop survived both.
	p := &f.cat.Products[0]
	if _, err := indexer.RouteUpdate(f.queue, &msg.ProductUpdate{
		Type: msg.TypeRemoveProduct, ProductID: p.ID, ImageURLs: p.ImageURLs[:1],
		EventTimeNanos: time.Now().UnixNano(),
	}); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for s.Dropped() < 1 || s.ApplyErrors() < 1 || s.Applied() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("counters stalled: dropped=%d applyErrors=%d applied=%d",
				s.Dropped(), s.ApplyErrors(), s.Applied())
		}
		time.Sleep(time.Millisecond)
	}

	// Both surface in the stats payload.
	if st := callStats(t, s.Addr()); st.Dropped != 1 || st.ApplyErrors != 1 {
		t.Fatalf("stats = dropped %d / apply_errors %d, want 1/1", st.Dropped, st.ApplyErrors)
	}
}

func TestManySearchersShareNothing(t *testing.T) {
	f := newFixture(t, 6)
	var nodes []*Searcher
	for i := 0; i < 4; i++ {
		s, err := New(Config{Partition: core.PartitionID(i), Shard: f.shard})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, s)
	}
	defer func() {
		for _, s := range nodes {
			s.Close()
		}
	}()
	addrSeen := map[string]bool{}
	for _, s := range nodes {
		if addrSeen[s.Addr()] {
			t.Fatalf("duplicate address %s", s.Addr())
		}
		addrSeen[s.Addr()] = true
	}
	url := f.cat.Products[0].ImageURLs[0]
	for i, s := range nodes {
		resp := callSearch(t, s.Addr(), &core.SearchRequest{Feature: f.feats[url], TopK: 1, NProbe: 8, Category: -1})
		if len(resp.Hits) == 0 || resp.Hits[0].Image.Partition != core.PartitionID(i) {
			t.Fatalf("node %d: %+v", i, resp.Hits)
		}
	}
}
