package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestForCoversEachIndexOnce: at every GOMAXPROCS and range size, the
// chunks are disjoint, consecutive and cover [0, n) exactly once.
func TestForCoversEachIndexOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3, 4, 8} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 2, 3, 7, 8, 100, 1001} {
			hits := make([]atomic.Int32, n)
			var calls atomic.Int32
			For(n, func(lo, hi int) {
				calls.Add(1)
				if lo >= hi {
					t.Errorf("procs %d n %d: empty chunk [%d, %d)", procs, n, lo, hi)
				}
				for i := lo; i < hi; i++ {
					hits[i].Add(1)
				}
			})
			for i := range hits {
				if h := hits[i].Load(); h != 1 {
					t.Fatalf("procs %d n %d: index %d visited %d times", procs, n, i, h)
				}
			}
			if want := min(procs, n); int(calls.Load()) != want {
				t.Fatalf("procs %d n %d: %d chunks, want %d", procs, n, calls.Load(), want)
			}
		}
	}
}
