package broker

import (
	"cmp"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net"
	"slices"
	"testing"
	"time"

	"jdvs/internal/catalog"
	"jdvs/internal/cnn"
	"jdvs/internal/core"
	"jdvs/internal/featuredb"
	"jdvs/internal/imagestore/imagestoretest"
	"jdvs/internal/index"
	"jdvs/internal/indexer"
	"jdvs/internal/kmeans"
	"jdvs/internal/rpc"
	"jdvs/internal/search"
	"jdvs/internal/search/searcher"
)

const testDim = 16

// twoPartitionFixture builds two searcher partitions (optionally with a
// replica each) holding disjoint product sets.
type twoPartitionFixture struct {
	cat       *catalog.Catalog
	feats     map[string][]float32
	searchers [][]*searcher.Searcher // [partition][replica]
}

func newTwoPartitions(t *testing.T, replicas int) *twoPartitionFixture {
	t.Helper()
	f := &twoPartitionFixture{feats: make(map[string][]float32)}
	images := imagestoretest.New(t)
	cat, err := catalog.Generate(catalog.Config{Products: 40, Categories: 4, Seed: 23}, images)
	if err != nil {
		t.Fatal(err)
	}
	f.cat = cat
	db, err := featuredb.New()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	res := &indexer.Resolver{
		DB:        db,
		Images:    images,
		Extractor: cnn.New(cnn.Config{Dim: testDim, Seed: 9}),
	}
	var train []float32
	for i := range cat.Products {
		p := &cat.Products[i]
		for _, url := range p.ImageURLs {
			feat, _, err := res.Resolve(url, p.Attrs(url))
			if err != nil {
				t.Fatal(err)
			}
			f.feats[url] = feat
			train = append(train, feat...)
		}
	}
	newShard := func(part int) *index.Shard {
		s, err := index.New(index.Config{DefaultNProbe: 8})
		if err != nil {
			t.Fatal(err)
		}
		cb, err := kmeans.Train(kmeans.Config{K: 8, Dim: testDim, Seed: 1}, train)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SetCodebook(cb); err != nil {
			t.Fatal(err)
		}
		for i := range cat.Products {
			p := &cat.Products[i]
			if int(p.ID)%2 != part { // split products across partitions
				continue
			}
			for _, url := range p.ImageURLs {
				if _, _, err := s.Insert(p.Attrs(url), f.feats[url]); err != nil {
					t.Fatal(err)
				}
			}
		}
		return s
	}
	for part := 0; part < 2; part++ {
		var group []*searcher.Searcher
		for r := 0; r < replicas; r++ {
			node, err := searcher.New(searcher.Config{
				Partition: core.PartitionID(part),
				Shard:     newShard(part),
			})
			if err != nil {
				t.Fatal(err)
			}
			group = append(group, node)
		}
		f.searchers = append(f.searchers, group)
	}
	t.Cleanup(func() {
		for _, group := range f.searchers {
			for _, s := range group {
				s.Close()
			}
		}
	})
	return f
}

func (f *twoPartitionFixture) groups() [][]string {
	out := make([][]string, len(f.searchers))
	for p, group := range f.searchers {
		for _, s := range group {
			out[p] = append(out[p], s.Addr())
		}
	}
	return out
}

func callBroker(t *testing.T, addr string, req *core.SearchRequest) (*core.SearchResponse, error) {
	t.Helper()
	c, err := rpc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	raw, err := c.Call(context.Background(), search.MethodSearch, core.EncodeSearchRequest(req))
	if err != nil {
		return nil, err
	}
	return core.DecodeSearchResponse(raw)
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("no partitions accepted")
	}
	if _, err := New(Config{PartitionReplicas: [][]string{{}}}); err == nil {
		t.Fatal("empty replica set accepted")
	}
	if _, err := New(Config{PartitionReplicas: [][]string{{"127.0.0.1:1"}}}); err == nil {
		t.Fatal("dial to dead searcher succeeded")
	}
}

func TestFanOutMergesAcrossPartitions(t *testing.T) {
	f := newTwoPartitions(t, 1)
	b, err := New(Config{PartitionReplicas: f.groups()})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// Query for a product on each partition: both must be reachable through
	// the one broker.
	for part := 0; part < 2; part++ {
		var target *catalog.Product
		for i := range f.cat.Products {
			if int(f.cat.Products[i].ID)%2 == part {
				target = &f.cat.Products[i]
				break
			}
		}
		url := target.ImageURLs[0]
		resp, err := callBroker(t, b.Addr(), &core.SearchRequest{
			Feature: f.feats[url], TopK: 3, NProbe: 8, Category: -1,
		})
		if err != nil {
			t.Fatalf("broker search: %v", err)
		}
		if len(resp.Hits) == 0 || resp.Hits[0].ProductID != target.ID {
			t.Fatalf("partition %d product not found via broker: %+v", part, resp.Hits)
		}
		if resp.Hits[0].Image.Partition != core.PartitionID(part) {
			t.Fatalf("hit partition = %d, want %d", resp.Hits[0].Image.Partition, part)
		}
	}
}

// TestMergeOrderedAndTruncated pins the broker's k-way merge to the page a
// sort of the concatenated partition pages would give — same hits, same
// order, same bytes on the wire — for a truncating TopK, one past every
// hit, and the unbounded TopK 0. The query is chosen so that distances tie
// across partitions, which the packed image reference must break.
func TestMergeOrderedAndTruncated(t *testing.T) {
	f := newTwoPartitions(t, 1)
	b, err := New(Config{PartitionReplicas: f.groups()})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	// The origin: the fixture's features are unit-norm, so distances take
	// only the few float32 values next to 1 and repeat across partitions.
	q := make([]float32, testDim)
	for _, topK := range []int{7, 1000, 0} {
		req := &core.SearchRequest{Feature: q, TopK: topK, NProbe: 8, Category: -1}
		var want []core.Hit
		probed := 0
		for _, group := range f.searchers {
			page, err := callBroker(t, group[0].Addr(), req)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, page.Hits...)
			probed += page.Probed
		}
		slices.SortFunc(want, func(a, b core.Hit) int {
			return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.Image.Pack(), b.Image.Pack()))
		})
		ties := 0
		for i := 1; i < len(want); i++ {
			if want[i].Dist == want[i-1].Dist && want[i].Image.Partition != want[i-1].Image.Partition {
				ties++
			}
		}
		if ties == 0 {
			t.Fatalf("TopK %d: no cross-partition distance tie among %d hits; the tie order is untested", topK, len(want))
		}
		if topK > 0 && len(want) > topK {
			want = want[:topK]
		}
		resp, err := callBroker(t, b.Addr(), req)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Hits) != len(want) || len(want) == 0 {
			t.Fatalf("TopK %d: merged %d hits, want %d (> 0)", topK, len(resp.Hits), len(want))
		}
		for i := range want {
			if resp.Hits[i] != want[i] {
				t.Fatalf("TopK %d: hit %d = %+v, want %+v", topK, i, resp.Hits[i], want[i])
			}
		}
		// Scan diagnostics aggregate across partitions.
		if resp.Probed != probed {
			t.Fatalf("probed = %d, want %d", resp.Probed, probed)
		}
	}
}

// TestReplicaFailover kills one replica; queries must keep succeeding via
// the survivor ("each partition can have multiple copies for
// availability").
func TestReplicaFailover(t *testing.T) {
	f := newTwoPartitions(t, 2)
	b, err := New(Config{PartitionReplicas: f.groups()})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	url := f.cat.Products[0].ImageURLs[0]
	req := &core.SearchRequest{Feature: f.feats[url], TopK: 3, NProbe: 8, Category: -1}

	// Kill replica 0 of partition 0.
	f.searchers[0][0].Close()
	for i := 0; i < 10; i++ {
		resp, err := callBroker(t, b.Addr(), req)
		if err != nil {
			t.Fatalf("query %d failed after replica death: %v", i, err)
		}
		if len(resp.Hits) == 0 {
			t.Fatalf("query %d degraded after replica death", i)
		}
	}
}

// TestAllReplicasDeadDegradesGracefully: losing a whole partition degrades
// results; losing everything errors.
func TestPartitionLossDegradation(t *testing.T) {
	f := newTwoPartitions(t, 1)
	b, err := New(Config{PartitionReplicas: f.groups()})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	rng := rand.New(rand.NewSource(2))
	q := make([]float32, testDim)
	for i := range q {
		q[i] = float32(rng.NormFloat64())
	}
	req := &core.SearchRequest{Feature: q, TopK: 50, NProbe: 8, Category: -1}

	f.searchers[0][0].Close() // partition 0 gone entirely
	resp, err := callBroker(t, b.Addr(), req)
	if err != nil {
		t.Fatalf("partial partition loss failed the query: %v", err)
	}
	for _, h := range resp.Hits {
		if h.Image.Partition == 0 {
			t.Fatalf("hit from dead partition: %+v", h)
		}
	}

	f.searchers[1][0].Close() // all partitions gone
	if _, err := callBroker(t, b.Addr(), req); err == nil {
		t.Fatal("query succeeded with every searcher dead")
	}
	// Failure counter advanced.
	c, err := rpc.Dial(b.Addr())
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
		t.Fatal(err)
	}
	if st.Failures == 0 {
		t.Fatalf("stats = %+v, want failures > 0", st)
	}
}

// TestRoundRobinCursorNearWrap: the replica cursor modulo is computed in
// uint64; a counter past the int range must keep rotating replicas instead
// of producing a negative index and panicking the fan-out.
func TestRoundRobinCursorNearWrap(t *testing.T) {
	f := newTwoPartitions(t, 2)
	b, err := New(Config{PartitionReplicas: f.groups()})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for _, g := range b.groups {
		g.next.Store(math.MaxUint64 - 3)
	}
	url := f.cat.Products[0].ImageURLs[0]
	req := &core.SearchRequest{Feature: f.feats[url], TopK: 3, NProbe: 8, Category: -1}
	for i := 0; i < 8; i++ {
		resp, err := callBroker(t, b.Addr(), req)
		if err != nil {
			t.Fatalf("query %d across cursor wrap: %v", i, err)
		}
		if len(resp.Hits) == 0 {
			t.Fatalf("query %d returned no hits", i)
		}
	}
}

// hangServer accepts connections and swallows everything without ever
// responding — a searcher that is up but wedged.
func hangServer(t *testing.T) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go func() {
				buf := make([]byte, 4096)
				for {
					if _, err := conn.Read(buf); err != nil {
						conn.Close()
						return
					}
				}
			}()
		}
	}()
	return lis.Addr().String()
}

// TestQueryTimeoutReturnsPartialResults: a wedged partition must cost the
// query at most QueryTimeout, not SearcherTimeout × replicas, and the
// healthy partitions' results still come back.
func TestQueryTimeoutReturnsPartialResults(t *testing.T) {
	f := newTwoPartitions(t, 1)
	groups := f.groups()
	// Partition 1 is served only by a wedged searcher.
	groups[1] = []string{hangServer(t)}
	b, err := New(Config{
		PartitionReplicas: groups,
		SearcherTimeout:   10 * time.Second,
		QueryTimeout:      300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// Query for a partition-0 product.
	var target *catalog.Product
	for i := range f.cat.Products {
		if int(f.cat.Products[i].ID)%2 == 0 {
			target = &f.cat.Products[i]
			break
		}
	}
	url := target.ImageURLs[0]
	startAt := time.Now()
	resp, err := callBroker(t, b.Addr(), &core.SearchRequest{
		Feature: f.feats[url], TopK: 5, NProbe: 8, Category: -1,
	})
	elapsed := time.Since(startAt)
	if err != nil {
		t.Fatalf("partial query failed: %v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("query took %v; QueryTimeout did not bound the fan-out", elapsed)
	}
	if len(resp.Hits) == 0 || resp.Hits[0].ProductID != target.ID {
		t.Fatalf("healthy partition's results missing: %+v", resp.Hits)
	}
	for _, h := range resp.Hits {
		if h.Image.Partition == 1 {
			t.Fatalf("hit from the wedged partition: %+v", h)
		}
	}

	// The degradation is visible in stats.
	c, err := rpc.Dial(b.Addr())
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
		t.Fatal(err)
	}
	if st.Partials == 0 || st.Failures == 0 {
		t.Fatalf("stats = %+v, want partials > 0 and failures > 0", st)
	}
}

func TestBadRequestRejected(t *testing.T) {
	f := newTwoPartitions(t, 1)
	b, err := New(Config{PartitionReplicas: f.groups()})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	c, err := rpc.Dial(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(context.Background(), search.MethodSearch, []byte("garbage")); err == nil {
		t.Fatal("garbage request fanned out")
	}
}
