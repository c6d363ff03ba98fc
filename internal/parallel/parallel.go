// Package parallel splits an index range across the machine's cores. It is
// the one fan-out the full build uses (k-means, PQ training, bulk-load
// assignment and encode, feature resolution): every caller writes results
// at the indices it was handed, so the output does not depend on how many
// workers ran or in which order they finished. Reductions over the results
// stay with the caller, serial and in index order.
package parallel

import (
	"runtime"
	"sync"
)

// For calls fn(lo, hi) on consecutive disjoint chunks that together cover
// [0, n), one chunk per worker, and returns when every call has. It runs
// min(GOMAXPROCS, n) workers, the first on the calling goroutine; with
// one, fn(0, n) runs inline. fn must be safe for concurrent calls on
// disjoint chunks.
func For(n int, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(w*n/workers, (w+1)*n/workers)
	}
	fn(0, n/workers)
	wg.Wait()
}
