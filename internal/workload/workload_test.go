package workload

import (
	"testing"
	"time"

	"jdvs/internal/catalog"
	"jdvs/internal/cluster"
	"jdvs/internal/imagestore/imagestoretest"
	"jdvs/internal/msg"
)

func TestMixProportionsMatchTable1(t *testing.T) {
	images := imagestoretest.New(t)
	cat, err := catalog.Generate(catalog.Config{Products: 2000, Categories: 8, Seed: 41}, images)
	if err != nil {
		t.Fatal(err)
	}
	g := NewMix(MixConfig{Seed: 1}, cat, images)

	const n = 40000
	counts := map[Kind]int{}
	freshAdds := 0
	for i := 0; i < n; i++ {
		u, kind, fresh, err := g.Next()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if u == nil || u.Type == 0 {
			t.Fatalf("event %d malformed: %+v", i, u)
		}
		counts[kind]++
		if fresh {
			if kind != KindAddition {
				t.Fatalf("fresh non-addition at %d", i)
			}
			freshAdds++
		}
	}
	frac := func(k Kind) float64 { return float64(counts[k]) / n }
	within := func(got, want, tol float64) bool { return got > want-tol && got < want+tol }
	if !within(frac(KindAttrUpdate), float64(Table1AttrUpdates)/Table1Total, 0.02) {
		t.Errorf("attr updates fraction %.3f, want ≈ %.3f", frac(KindAttrUpdate), float64(Table1AttrUpdates)/Table1Total)
	}
	if !within(frac(KindAddition), float64(Table1Additions)/Table1Total, 0.02) {
		t.Errorf("additions fraction %.3f, want ≈ %.3f", frac(KindAddition), float64(Table1Additions)/Table1Total)
	}
	if !within(frac(KindDeletion), float64(Table1Deletions)/Table1Total, 0.02) {
		t.Errorf("deletions fraction %.3f, want ≈ %.3f", frac(KindDeletion), float64(Table1Deletions)/Table1Total)
	}
	// Fresh additions ≈ 1.5% of additions (8/521).
	freshFrac := float64(freshAdds) / float64(counts[KindAddition])
	if !within(freshFrac, Table1FreshAddsShare, 0.01) {
		t.Errorf("fresh-add fraction %.4f, want ≈ %.4f", freshFrac, Table1FreshAddsShare)
	}
}

func TestMixEventConsistency(t *testing.T) {
	images := imagestoretest.New(t)
	cat, err := catalog.Generate(catalog.Config{Products: 100, Seed: 43}, images)
	if err != nil {
		t.Fatal(err)
	}
	g := NewMix(MixConfig{Seed: 2}, cat, images)
	listed := map[uint64]bool{}
	for i := range cat.Products {
		listed[cat.Products[i].ID] = true
	}
	for i := 0; i < 5000; i++ {
		u, kind, fresh, err := g.Next()
		if err != nil {
			t.Fatal(err)
		}
		switch kind {
		case KindDeletion:
			if u.Type != msg.TypeRemoveProduct {
				t.Fatalf("deletion with type %v", u.Type)
			}
			if !listed[u.ProductID] {
				t.Fatalf("deleted a product that was not listed: %d", u.ProductID)
			}
			listed[u.ProductID] = false
		case KindAddition:
			if u.Type != msg.TypeAddProduct {
				t.Fatalf("addition with type %v", u.Type)
			}
			if fresh && listed[u.ProductID] {
				t.Fatalf("fresh add of existing product %d", u.ProductID)
			}
			listed[u.ProductID] = true
			// Fresh products' images must be uploaded.
			if fresh {
				for _, url := range u.ImageURLs {
					if _, err := images.Get(url); err != nil {
						t.Fatalf("fresh product image %s not uploaded: %v", url, err)
					}
				}
			}
		case KindAttrUpdate:
			if u.Type != msg.TypeUpdateAttrs {
				t.Fatalf("update with type %v", u.Type)
			}
		}
		if len(u.ImageURLs) == 0 {
			t.Fatalf("event %d has no image URLs", i)
		}
	}
}

func TestHourOfEventFollowsShape(t *testing.T) {
	const total = 100000
	counts := [24]int{}
	for i := 0; i < total; i++ {
		h := HourOfEvent(i, total, DiurnalShape)
		if h < 0 || h > 23 {
			t.Fatalf("hour %d out of range", h)
		}
		counts[h]++
	}
	// Peak hour is 11:00, trough is 04:00 — as in Fig. 11(a).
	peak := 0
	for h := 1; h < 24; h++ {
		if counts[h] > counts[peak] {
			peak = h
		}
	}
	if peak != 11 {
		t.Fatalf("peak hour %d, want 11; counts=%v", peak, counts)
	}
	if counts[4] >= counts[11]/10 {
		t.Fatalf("trough not deep enough: 4h=%d 11h=%d", counts[4], counts[11])
	}
	// Monotone event index → monotone hour.
	prev := 0
	for i := 0; i < total; i += 1000 {
		h := HourOfEvent(i, total, DiurnalShape)
		if h < prev {
			t.Fatalf("hour went backwards at event %d", i)
		}
		prev = h
	}
}

func TestRunQueryLoadAgainstCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster-backed load test")
	}
	c, err := cluster.Start(cluster.Config{
		Partitions: 2,
		NLists:     16,
		Catalog:    catalog.Config{Products: 100, Categories: 4, Seed: 47},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	res, err := RunQueryLoad(QueryLoadConfig{
		Addr:        c.FrontendAddr(),
		Concurrency: 4,
		Duration:    500 * time.Millisecond,
		Blobs:       MakeQueryBlobs(c.Catalog, 16, 1),
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries == 0 {
		t.Fatal("no queries completed")
	}
	if res.Errors != 0 {
		t.Fatalf("%d query errors", res.Errors)
	}
	if res.QPS <= 0 {
		t.Fatalf("QPS = %v", res.QPS)
	}
	if res.Latency.Count() != uint64(res.Queries) {
		t.Fatalf("histogram count %d != queries %d", res.Latency.Count(), res.Queries)
	}
}

func TestRunQueryLoadValidation(t *testing.T) {
	if _, err := RunQueryLoad(QueryLoadConfig{Addr: "x", Blobs: [][]byte{{1}}}); err == nil {
		t.Fatal("zero concurrency accepted")
	}
	if _, err := RunQueryLoad(QueryLoadConfig{Addr: "x", Concurrency: 1}); err == nil {
		t.Fatal("empty query pool accepted")
	}
}
