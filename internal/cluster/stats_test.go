package cluster

import (
	"context"
	"testing"
	"time"

	"jdvs/internal/core"
)

func TestStatsAggregation(t *testing.T) {
	c := startTestCluster(t, smallConfig())
	cl, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	// Drive some traffic so the counters move.
	for i := 0; i < 5; i++ {
		blob := c.Catalog.QueryImage(&c.Catalog.Products[i]).Encode()
		if _, err := cl.Query(ctx, &core.QueryRequest{ImageBlob: blob, TopK: 5, CategoryScope: core.AllCategories}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Publish(c.UpdateAttrsEvent(&c.Catalog.Products[0], 1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	if !c.WaitForDrain(5 * time.Second) {
		t.Fatal("drain timeout")
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if len(st.Searchers) != c.Partitions() {
		t.Fatalf("stats cover %d searchers, want %d", len(st.Searchers), c.Partitions())
	}
	if st.Frontend.Queries != 5 {
		t.Fatalf("frontend saw %d queries, want 5", st.Frontend.Queries)
	}
	var blenderQueries, searcherApplied int64
	for _, b := range st.Blenders {
		blenderQueries += b.Queries
	}
	for _, s := range st.Searchers {
		searcherApplied += s.Applied
	}
	if blenderQueries != 5 {
		t.Fatalf("blenders saw %d queries, want 5", blenderQueries)
	}
	if searcherApplied != int64(len(c.Catalog.Products[0].ImageURLs)) {
		t.Fatalf("searchers applied %d updates, want %d", searcherApplied, len(c.Catalog.Products[0].ImageURLs))
	}
	wantImages := 0
	for i := range c.Catalog.Products {
		wantImages += len(c.Catalog.Products[i].ImageURLs)
	}
	images, valid := 0, 0
	for _, sst := range st.Searchers {
		images += sst.Index.Images
		valid += sst.Index.ValidImages
	}
	if images != wantImages || valid != wantImages {
		t.Fatalf("searchers report %d images (%d valid), want %d", images, valid, wantImages)
	}
}

func TestStatsFailsOnDeadNode(t *testing.T) {
	c := startTestCluster(t, smallConfig())
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c.Searcher(0, 0).Close()
	if _, err := c.Stats(ctx); err == nil {
		t.Fatal("stats succeeded with a dead searcher")
	}
}
