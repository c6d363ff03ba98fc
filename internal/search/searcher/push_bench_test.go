package searcher

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"jdvs/internal/core"
	"jdvs/internal/index"
)

// benchShard builds a synthetic shard of the given size without the
// catalog machinery, so push throughput dominates the benchmark.
func benchShard(b *testing.B, images, dim int) *index.Shard {
	b.Helper()
	rng := rand.New(rand.NewSource(41))
	train := make([]float32, dim*512)
	for i := range train {
		train[i] = float32(rng.NormFloat64())
	}
	s := trainShard(b, 32, dim, train)
	f := make([]float32, dim)
	for i := 0; i < images; i++ {
		for j := range f {
			f[j] = float32(rng.NormFloat64())
		}
		attrs := core.Attrs{ProductID: uint64(i + 1), URL: fmt.Sprintf("jfs://bench/%d.jpg", i)}
		if _, _, err := s.Insert(attrs, f); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// BenchmarkPushSnapshot measures full-index distribution throughput per
// chunk size.
func BenchmarkPushSnapshot(b *testing.B) {
	shard := benchShard(b, 20000, 64)
	var snap bytes.Buffer
	if err := shard.WriteSnapshot(&snap); err != nil {
		b.Fatal(err)
	}
	size := int64(snap.Len())

	recv, err := New(Config{Shard: shard})
	if err != nil {
		b.Fatal(err)
	}
	defer recv.Close()

	for _, cs := range []struct {
		name      string
		chunkSize int
	}{
		{"chunk64KB", 64 << 10},
		{"chunk1MB", 1 << 20},
		{"chunk4MB", 4 << 20}, // rpc.DefaultChunkSize, Cluster.Reindex's default
	} {
		b.Run(cs.name, func(b *testing.B) {
			ctx := context.Background()
			b.SetBytes(size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := PushSnapshot(ctx, recv.Addr(), shard, cs.chunkSize); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
