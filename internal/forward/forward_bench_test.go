package forward

import (
	"math/rand"
	"testing"
)

func benchIndex(b *testing.B, n int) *Index {
	b.Helper()
	ix := New()
	for i := 0; i < n; i++ {
		if _, err := ix.Append(sampleAttrs(i)); err != nil {
			b.Fatal(err)
		}
	}
	return ix
}

func BenchmarkAppend(b *testing.B) {
	ix := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Append(sampleAttrs(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGet measures the result-assembly read (record + URL).
func BenchmarkGet(b *testing.B) {
	ix := benchIndex(b, 100_000)
	rng := rand.New(rand.NewSource(1))
	ids := make([]uint32, 4096)
	for i := range ids {
		ids[i] = uint32(rng.Intn(100_000))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := ix.Get(ids[i%len(ids)]); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkNumeric measures the scan-path read (no URL materialisation).
func BenchmarkNumeric(b *testing.B) {
	ix := benchIndex(b, 100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, _, ok := ix.Numeric(uint32(i % 100_000)); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkSetSales measures the Fig. 7 atomic attribute update.
func BenchmarkSetSales(b *testing.B) {
	ix := benchIndex(b, 100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.SetSales(uint32(i%100_000), uint32(i))
	}
}
