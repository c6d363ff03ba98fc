package broker

import (
	"context"
	"fmt"
	"testing"

	"jdvs/internal/core"
	"jdvs/internal/rpc"
	"jdvs/internal/search"
)

// hopPage is a searcher's page for the hop benchmark: TopK 30 hits of
// partition p in page order, with attributes and URLs of catalog size.
func hopPage(p int) []byte {
	page := &core.SearchResponse{Scanned: 2000, Probed: 8}
	for i := 0; i < 30; i++ {
		page.Hits = append(page.Hits, core.Hit{
			Image:      core.ImageRef{Partition: core.PartitionID(p), Local: uint32(100 + i)},
			Dist:       0.01 * float32(i+p),
			ProductID:  uint64(1000*p + i),
			Sales:      uint32(i),
			Praise:     90,
			PriceCents: 12999,
			Category:   uint16(i % 12),
			URL:        fmt.Sprintf("jfs://img/p%06d/0.jpg", 1000*p+i),
		})
	}
	return core.EncodeSearchResponse(page)
}

// stubSearcher serves a canned page for every search.
func stubSearcher(b *testing.B, page []byte) string {
	b.Helper()
	srv := rpc.NewServer()
	srv.Handle(search.MethodSearch, func([]byte) ([]byte, error) { return page, nil })
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Close)
	return addr
}

// BenchmarkHop is the tier rung of the benchmark ladder (kernel → shard →
// tier → cluster): what one hop costs with a realistic request — a
// 64-float feature asking for TopK 30 — and its 30-hit page, in three
// rungs that each add a layer to the one before.
//
//   - codec: encode and decode the request and one page.
//   - roundtrip: one loopback rpc Call of the request, answered with the
//     page.
//   - fanout: one query through a broker over 8 partitions × 2 stub
//     replicas, hedging at its defaults: eight hops, the merge, and the
//     re-encoded page back.
func BenchmarkHop(b *testing.B) {
	feature := make([]float32, 64)
	for i := range feature {
		feature[i] = float32(i) / 64
	}
	req := &core.SearchRequest{Feature: feature, TopK: 30, NProbe: 8, Category: -1}
	reqBytes := core.EncodeSearchRequest(req)
	page := hopPage(0)
	ctx := context.Background()

	b.Run("codec", func(b *testing.B) {
		pageVal, err := core.DecodeSearchResponse(page)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.DecodeSearchRequest(core.EncodeSearchRequest(req)); err != nil {
				b.Fatal(err)
			}
			if _, err := core.DecodeSearchResponse(core.EncodeSearchResponse(pageVal)); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("roundtrip", func(b *testing.B) {
		c, err := rpc.Dial(stubSearcher(b, page))
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := c.Call(ctx, search.MethodSearch, reqBytes); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("fanout", func(b *testing.B) {
		groups := make([][]string, 8)
		for p := range groups {
			pg := hopPage(p)
			groups[p] = []string{stubSearcher(b, pg), stubSearcher(b, pg)}
		}
		br, err := New(Config{PartitionReplicas: groups})
		if err != nil {
			b.Fatal(err)
		}
		defer br.Close()
		c, err := rpc.Dial(br.Addr())
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			raw, err := c.Call(ctx, search.MethodSearch, reqBytes)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				if resp, err := core.DecodeSearchResponse(raw); err != nil || len(resp.Hits) != 30 {
					b.Fatalf("merged page: %v, err %v", resp, err)
				}
			}
		}
	})
}
