package blender

import (
	"context"
	"math/rand"
	"testing"

	"jdvs/internal/catalog"
	"jdvs/internal/cnn"
	"jdvs/internal/core"
	"jdvs/internal/featuredb"
	"jdvs/internal/imagestore/imagestoretest"
	"jdvs/internal/imaging"
	"jdvs/internal/index"
	"jdvs/internal/indexer"
	"jdvs/internal/rpc"
	"jdvs/internal/search"
	"jdvs/internal/search/broker"
	"jdvs/internal/search/searcher"
)

const testDim = 32

// stack is a full searcher+broker substrate for blender tests.
type stack struct {
	cat       *catalog.Catalog
	extractor *cnn.Extractor
	brokers   []*broker.Broker
	searchers []*searcher.Searcher
}

func newStack(t *testing.T, nBrokers int) *stack {
	t.Helper()
	st := &stack{extractor: cnn.New(cnn.Config{Dim: testDim, Seed: 13})}
	images := imagestoretest.New(t)
	cat, err := catalog.Generate(catalog.Config{Products: 60, Categories: 5, Seed: 29}, images)
	if err != nil {
		t.Fatal(err)
	}
	st.cat = cat
	res := &indexer.Resolver{DB: featuredb.New(), Images: images, Extractor: st.extractor}

	var train []float32
	type row struct {
		attrs core.Attrs
		feat  []float32
	}
	perPartition := make([][]row, nBrokers) // one partition per broker here
	for i := range cat.Products {
		p := &cat.Products[i]
		for _, url := range p.ImageURLs {
			e, _, err := res.Resolve(url, p.Attrs(url))
			if err != nil {
				t.Fatal(err)
			}
			train = append(train, e.Feature...)
			part := int(p.ID) % nBrokers
			perPartition[part] = append(perPartition[part], row{p.Attrs(url), e.Feature})
		}
	}
	for part := 0; part < nBrokers; part++ {
		shard, err := index.New(index.Config{Dim: testDim, NLists: 8, DefaultNProbe: 8})
		if err != nil {
			t.Fatal(err)
		}
		if err := shard.Train(train, 1); err != nil {
			t.Fatal(err)
		}
		for _, r := range perPartition[part] {
			if _, _, err := shard.Insert(r.attrs, r.feat); err != nil {
				t.Fatal(err)
			}
		}
		node, err := searcher.New(searcher.Config{Partition: core.PartitionID(part), Shard: shard})
		if err != nil {
			t.Fatal(err)
		}
		st.searchers = append(st.searchers, node)
		b, err := broker.New(broker.Config{PartitionReplicas: [][]string{{node.Addr()}}})
		if err != nil {
			t.Fatal(err)
		}
		st.brokers = append(st.brokers, b)
	}
	t.Cleanup(func() {
		for _, b := range st.brokers {
			b.Close()
		}
		for _, s := range st.searchers {
			s.Close()
		}
	})
	return st
}

func (st *stack) brokerAddrs() []string {
	out := make([]string, len(st.brokers))
	for i, b := range st.brokers {
		out[i] = b.Addr()
	}
	return out
}

func (st *stack) classifier(t *testing.T) *cnn.Classifier {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	protos := make([]float32, 0, len(st.cat.Categories)*testDim)
	for _, c := range st.cat.Categories {
		img := imaging.Generate(rng, c.Prototype, c.ID, imaging.GenConfig{Noise: 1e-4, PayloadBytes: 64})
		f, err := st.extractor.Extract(img)
		if err != nil {
			t.Fatal(err)
		}
		protos = append(protos, f...)
	}
	cls, err := cnn.NewClassifier(testDim, protos)
	if err != nil {
		t.Fatal(err)
	}
	return cls
}

func queryBlender(t *testing.T, addr string, q *core.QueryRequest) (*core.SearchResponse, error) {
	t.Helper()
	c, err := rpc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	raw, err := c.Call(context.Background(), search.MethodQuery, core.EncodeQueryRequest(q))
	if err != nil {
		return nil, err
	}
	return core.DecodeSearchResponse(raw)
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("no brokers accepted")
	}
	if _, err := New(Config{Brokers: []string{"x"}}); err == nil {
		t.Fatal("nil extractor accepted")
	}
	if _, err := New(Config{Brokers: []string{"127.0.0.1:1"}, Extractor: cnn.New(cnn.Config{Dim: 8})}); err == nil {
		t.Fatal("dial to dead broker succeeded")
	}
}

func TestImageQueryEndToEnd(t *testing.T) {
	st := newStack(t, 2)
	bl, err := New(Config{Brokers: st.brokerAddrs(), Extractor: st.extractor})
	if err != nil {
		t.Fatal(err)
	}
	defer bl.Close()

	target := &st.cat.Products[11]
	blob := st.cat.QueryImage(target).Encode()
	resp, err := queryBlender(t, bl.Addr(), &core.QueryRequest{
		ImageBlob: blob, TopK: 6, CategoryScope: core.AllCategories,
	})
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if len(resp.Hits) == 0 || len(resp.Hits) > 6 {
		t.Fatalf("got %d hits", len(resp.Hits))
	}
	found := false
	seen := map[uint64]bool{}
	for _, h := range resp.Hits {
		if h.ProductID == target.ID {
			found = true
		}
		if seen[h.ProductID] {
			t.Fatalf("duplicate product %d in ranked results", h.ProductID)
		}
		seen[h.ProductID] = true
		if h.Score == 0 {
			t.Fatalf("unranked hit: %+v", h)
		}
	}
	if !found {
		t.Fatalf("query product %d not in results", target.ID)
	}
	// Scores descend.
	for i := 1; i < len(resp.Hits); i++ {
		if resp.Hits[i].Score > resp.Hits[i-1].Score {
			t.Fatal("results not ranked by score")
		}
	}
}

func TestAutoCategoryScoping(t *testing.T) {
	st := newStack(t, 2)
	bl, err := New(Config{
		Brokers:    st.brokerAddrs(),
		Extractor:  st.extractor,
		Classifier: st.classifier(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer bl.Close()

	target := &st.cat.Products[5]
	blob := st.cat.QueryImage(target).Encode()
	resp, err := queryBlender(t, bl.Addr(), &core.QueryRequest{
		ImageBlob: blob, TopK: 10, AutoCategory: true,
	})
	if err != nil {
		t.Fatalf("auto-category query: %v", err)
	}
	for _, h := range resp.Hits {
		if h.Category != target.Category {
			t.Fatalf("hit outside detected category %d: %+v", target.Category, h)
		}
	}
	// AutoCategory without a classifier is a client error.
	noCls, err := New(Config{Brokers: st.brokerAddrs(), Extractor: st.extractor})
	if err != nil {
		t.Fatal(err)
	}
	defer noCls.Close()
	if _, err := queryBlender(t, noCls.Addr(), &core.QueryRequest{ImageBlob: blob, TopK: 3, AutoCategory: true}); err == nil {
		t.Fatal("auto-category accepted without classifier")
	}
}

func TestFeatureDirectSearch(t *testing.T) {
	st := newStack(t, 2)
	bl, err := New(Config{Brokers: st.brokerAddrs(), Extractor: st.extractor})
	if err != nil {
		t.Fatal(err)
	}
	defer bl.Close()
	target := &st.cat.Products[3]
	f, err := st.extractor.Extract(st.cat.QueryImage(target))
	if err != nil {
		t.Fatal(err)
	}
	c, err := rpc.Dial(bl.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	raw, err := c.Call(context.Background(), search.MethodSearch,
		core.EncodeSearchRequest(&core.SearchRequest{Feature: f, TopK: 5, NProbe: 8, Category: -1}))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := core.DecodeSearchResponse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Hits) == 0 {
		t.Fatal("feature-direct search empty")
	}
}

func TestMalformedQueryImage(t *testing.T) {
	st := newStack(t, 1)
	bl, err := New(Config{Brokers: st.brokerAddrs(), Extractor: st.extractor})
	if err != nil {
		t.Fatal(err)
	}
	defer bl.Close()
	_, err = queryBlender(t, bl.Addr(), &core.QueryRequest{ImageBlob: []byte("not an image"), TopK: 3})
	if err == nil {
		t.Fatal("malformed image accepted")
	}
}

// TestPartialBrokerFailure: one broker down degrades coverage, not
// availability.
func TestPartialBrokerFailure(t *testing.T) {
	st := newStack(t, 2)
	bl, err := New(Config{Brokers: st.brokerAddrs(), Extractor: st.extractor})
	if err != nil {
		t.Fatal(err)
	}
	defer bl.Close()
	st.brokers[0].Close()
	target := &st.cat.Products[2]
	blob := st.cat.QueryImage(target).Encode()
	resp, err := queryBlender(t, bl.Addr(), &core.QueryRequest{ImageBlob: blob, TopK: 6, CategoryScope: core.AllCategories})
	if err != nil {
		t.Fatalf("query failed with one broker down: %v", err)
	}
	for _, h := range resp.Hits {
		if int(h.ProductID)%2 == 0 { // partition 0's products live behind broker 0
			t.Fatalf("hit from dead broker's partition: %+v", h)
		}
	}
	st.brokers[1].Close()
	if _, err := queryBlender(t, bl.Addr(), &core.QueryRequest{ImageBlob: blob, TopK: 6, CategoryScope: core.AllCategories}); err == nil {
		t.Fatal("query succeeded with all brokers dead")
	}
}
