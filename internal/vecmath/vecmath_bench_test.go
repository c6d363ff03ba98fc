package vecmath

import (
	"fmt"
	"math/rand"
	"testing"
)

func randVec(rng *rand.Rand, dim int) []float32 {
	v := make([]float32, dim)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

func BenchmarkL2Squared(b *testing.B) {
	for _, dim := range []int{64, 128, 512} {
		b.Run(sizeName(dim), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x, y := randVec(rng, dim), randVec(rng, dim)
			b.ReportAllocs()
			b.ResetTimer()
			var sink float32
			for i := 0; i < b.N; i++ {
				sink += L2Squared(x, y)
			}
			if sink == 0 {
				b.Log(sink)
			}
		})
	}
}

func BenchmarkDot(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x, y := randVec(rng, 64), randVec(rng, 64)
	b.ReportAllocs()
	b.ResetTimer()
	var sink float32
	for i := 0; i < b.N; i++ {
		sink += Dot(x, y)
	}
	if sink == 0 {
		b.Log(sink)
	}
}

// nearestSink keeps BenchmarkNearestCentroid's call from being optimised
// away.
var nearestSink int

// BenchmarkNearestCentroid scores one vector against 256 centroids: dim 64
// is an IVF list assignment, dim 4 one PQ subspace of an encode or a
// k-means step over it.
func BenchmarkNearestCentroid(b *testing.B) {
	for _, dim := range []int{64, 4} {
		b.Run(fmt.Sprintf("dim=%d/k=256", dim), func(b *testing.B) {
			const k = 256
			rng := rand.New(rand.NewSource(3))
			cents := randVec(rng, dim*k)
			q := randVec(rng, dim)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nearestSink, _ = NearestCentroid(q, cents, dim)
			}
		})
	}
}

func BenchmarkTopCentroids(b *testing.B) {
	const dim, k = 64, 256
	rng := rand.New(rand.NewSource(4))
	cents := randVec(rng, dim*k)
	q := randVec(rng, dim)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TopCentroids(q, cents, dim, 8)
	}
}

func sizeName(n int) string {
	switch n {
	case 64:
		return "dim=64"
	case 128:
		return "dim=128"
	default:
		return "dim=512"
	}
}
