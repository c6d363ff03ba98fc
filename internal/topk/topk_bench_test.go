package topk

import (
	"math/rand"
	"testing"
)

// BenchmarkPush measures the scan-path hot loop: offering candidates to a
// full selector (most offers are rejected in O(1)).
func BenchmarkPush(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	dists := make([]float32, 1<<16)
	for i := range dists {
		dists[i] = rng.Float32()
	}
	s := New(10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Push(uint64(i), dists[i&(1<<16-1)])
	}
}

func BenchmarkSorted(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New(100)
		for j := 0; j < 1000; j++ {
			s.Push(uint64(j), rng.Float32())
		}
		if got := s.Sorted(); len(got) != 100 {
			b.Fatal("short results")
		}
	}
}

func BenchmarkMerge(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	lists := make([][]Item, 8) // brokers merging 8 searchers
	for l := range lists {
		s := New(10)
		for j := 0; j < 200; j++ {
			s.Push(uint64(l*1000+j), rng.Float32())
		}
		lists[l] = s.Sorted()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := Merge(10, lessPtr, lists...); len(got) != 10 {
			b.Fatal("short merge")
		}
	}
}
