package inverted

import (
	"math/rand"
	"testing"
)

// BenchmarkAppend measures the real-time insertion hot path (Fig. 8):
// write the ID, publish the aux position.
func BenchmarkAppend(b *testing.B) {
	ix := newWithCap(64, 1024)
	rng := rand.New(rand.NewSource(1))
	lists := make([]int, b.N)
	for i := range lists {
		lists[i] = rng.Intn(64)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ix.Append(lists[i], uint32(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	ix.Flush()
}

// BenchmarkScan measures the search-side scan of one fully built list.
func BenchmarkScan(b *testing.B) {
	for _, size := range []int{1_000, 100_000} {
		name := "list=1k"
		if size == 100_000 {
			name = "list=100k"
		}
		b.Run(name, func(b *testing.B) {
			ix := newWithCap(1, 1024)
			for i := 0; i < size; i++ {
				if err := ix.Append(0, uint32(i)); err != nil {
					b.Fatal(err)
				}
			}
			ix.Flush()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var sum uint64
				ix.Scan(0, func(id uint32) bool {
					sum += uint64(id)
					return true
				})
				if sum == 0 {
					b.Fatal("empty scan")
				}
			}
		})
	}
}

// BenchmarkScanDuringAppends measures reader throughput while the single
// writer appends — the paper's concurrent search/update workload.
func BenchmarkScanDuringAppends(b *testing.B) {
	ix := newWithCap(1, 1024)
	for i := 0; i < 50_000; i++ {
		if err := ix.Append(0, uint32(i)); err != nil {
			b.Fatal(err)
		}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 50_000; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = ix.Append(0, uint32(i))
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		ix.Scan(0, func(uint32) bool {
			n++
			return n < 10_000 // bounded scan per op
		})
	}
	b.StopTimer()
	close(stop)
	<-done
}
