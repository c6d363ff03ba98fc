package bitmapx

import "testing"

// BenchmarkSetClear measures the §2.3 deletion/re-listing primitive: one
// atomic bit flip.
func BenchmarkSetClear(b *testing.B) {
	bm := New(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := uint32(i) & (1<<20 - 1)
		if i&1 == 0 {
			bm.Set(id)
		} else {
			bm.Clear(id)
		}
	}
}

// BenchmarkGet measures the validity check on the search scan path.
func BenchmarkGet(b *testing.B) {
	bm := New(1 << 20)
	for i := uint32(0); i < 1<<20; i += 2 {
		bm.Set(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var valid int
	for i := 0; i < b.N; i++ {
		if bm.Get(uint32(i) & (1<<20 - 1)) {
			valid++
		}
	}
	if valid < 0 {
		b.Fatal("impossible")
	}
}

// BenchmarkIntersect measures the per-query admission-bitmap build:
// snapshotting the validity bitmap into flat words and intersecting it
// with a category bitmap, then ranging over the result. 1<<20 bits ≈ a
// 1M-image shard; the whole build is a few dozen µs, amortised against
// the list scan it replaces per-candidate forward lookups in.
func BenchmarkIntersect(b *testing.B) {
	valid := New(1 << 20)
	cat := New(1 << 20)
	for i := uint32(0); i < 1<<20; i++ {
		if i%3 != 0 {
			valid.Set(i)
		}
		if i%100 == 0 {
			cat.Set(i)
		}
	}
	var wv, wc, dst Words
	b.Run("snapshot+and", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			wv = valid.AppendWords(wv[:0])
			wc = cat.AppendWords(wc[:0])
			dst = And(dst, wv, wc)
		}
	})
	b.Run("range", func(b *testing.B) {
		b.ReportAllocs()
		n := 0
		for i := 0; i < b.N; i++ {
			dst.Range(func(uint32) bool { n++; return true })
		}
		if n < 0 {
			b.Fatal("impossible")
		}
	})
}

// BenchmarkGetParallel models many search threads filtering concurrently.
func BenchmarkGetParallel(b *testing.B) {
	bm := New(1 << 20)
	for i := uint32(0); i < 1<<20; i += 3 {
		bm.Set(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := uint32(0)
		for pb.Next() {
			bm.Get(i & (1<<20 - 1))
			i += 7
		}
	})
}
