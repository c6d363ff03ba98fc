package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestWindowQuantileExact(t *testing.T) {
	w := NewWindow(100)
	for i := 1; i <= 100; i++ {
		w.Record(time.Duration(i) * time.Millisecond)
	}
	if got := w.Quantiles(50)[0]; got != 50*time.Millisecond {
		t.Fatalf("p50 = %v, want 50ms", got)
	}
	if got := w.Quantiles(95)[0]; got != 95*time.Millisecond {
		t.Fatalf("p95 = %v, want 95ms", got)
	}
	if got := w.Quantiles(100)[0]; got != 100*time.Millisecond {
		t.Fatalf("p100 = %v, want 100ms", got)
	}
	qs := w.Quantiles(50, 95, 99)
	if qs[0] != 50*time.Millisecond || qs[1] != 95*time.Millisecond || qs[2] != 99*time.Millisecond {
		t.Fatalf("Quantiles = %v", qs)
	}
}

func TestWindowEmptyAndPartial(t *testing.T) {
	w := NewWindow(64)
	if w.Quantiles(99)[0] != 0 {
		t.Fatal("empty window quantile not zero")
	}
	if w.Count() != 0 {
		t.Fatal("empty window count not zero")
	}
	// Partial fill: quantiles read only the filled slots, not the zeroed
	// remainder of the ring.
	for i := 0; i < 10; i++ {
		w.Record(7 * time.Millisecond)
	}
	if got := w.Quantiles(50)[0]; got != 7*time.Millisecond {
		t.Fatalf("partial-fill p50 = %v, want 7ms", got)
	}
}

func TestWindowSlides(t *testing.T) {
	w := NewWindow(16)
	for i := 0; i < 16; i++ {
		w.Record(time.Second) // old regime
	}
	for i := 0; i < 16; i++ {
		w.Record(time.Millisecond) // new regime overwrites the ring
	}
	if got := w.Quantiles(99)[0]; got != time.Millisecond {
		t.Fatalf("window did not slide: p99 = %v, want 1ms", got)
	}
}

func TestWindowTrackedRefreshes(t *testing.T) {
	w := NewWindow(128, 95)
	if got := w.Tracked(0); got != 0 {
		t.Fatalf("tracked quantile before any refresh = %v, want 0 (warm-up)", got)
	}
	// Recording past the refresh interval must populate the cache.
	for i := 0; i < windowRefreshEvery*2; i++ {
		w.Record(5 * time.Millisecond)
	}
	if got := w.Tracked(0); got != 5*time.Millisecond {
		t.Fatalf("tracked p95 = %v, want 5ms", got)
	}
	// Out-of-range indexes are inert.
	if w.Tracked(-1) != 0 || w.Tracked(1) != 0 {
		t.Fatal("out-of-range Tracked not zero")
	}
}

func TestWindowDefaultSizeAndNegativeClamp(t *testing.T) {
	w := NewWindow(0)
	if len(w.ring) != DefaultWindowSize {
		t.Fatalf("default size = %d, want %d", len(w.ring), DefaultWindowSize)
	}
	w.Record(-time.Second)
	if got := w.Quantiles(100)[0]; got != 0 {
		t.Fatalf("negative sample recorded as %v, want 0", got)
	}
}

// TestWindowQuantileBeforeWarmup: below windowRefreshEvery records the
// cached estimate is still warm-up zero, but the on-demand Quantiles is
// already exact over the partial fill — the two read paths must disagree
// in exactly this way, or hedging would act on empty estimates.
func TestWindowQuantileBeforeWarmup(t *testing.T) {
	w := NewWindow(64, 95)
	for i := 0; i < windowRefreshEvery-1; i++ {
		w.Record(3 * time.Millisecond)
	}
	if got := w.Tracked(0); got != 0 {
		t.Fatalf("Tracked before first refresh = %v, want 0", got)
	}
	if got := w.Quantiles(95)[0]; got != 3*time.Millisecond {
		t.Fatalf("on-demand Quantiles before warmup = %v, want 3ms", got)
	}
	// The next record crosses the refresh boundary and populates the cache.
	w.Record(3 * time.Millisecond)
	if got := w.Tracked(0); got != 3*time.Millisecond {
		t.Fatalf("Tracked after refresh = %v, want 3ms", got)
	}
}

// TestWindowWrapAtRefreshInterval sizes the ring to exactly
// windowRefreshEvery so the first wrap position coincides with the first
// refresh. The refresh must see the fully-filled ring (not an empty or
// doubled view), and the next record must overwrite slot 0.
func TestWindowWrapAtRefreshInterval(t *testing.T) {
	w := NewWindow(windowRefreshEvery, 100)
	for i := 1; i <= windowRefreshEvery; i++ {
		w.Record(time.Duration(i) * time.Millisecond)
	}
	if w.Count() != windowRefreshEvery {
		t.Fatalf("count = %d, want %d", w.Count(), windowRefreshEvery)
	}
	wantMax := time.Duration(windowRefreshEvery) * time.Millisecond
	if got := w.Tracked(0); got != wantMax {
		t.Fatalf("Tracked(p100) at wrap boundary = %v, want %v", got, wantMax)
	}
	if got := w.Quantiles(100)[0]; got != wantMax {
		t.Fatalf("Quantiles(100) at wrap boundary = %v, want %v", got, wantMax)
	}
	// Record windowRefreshEvery+1 wraps to slot 0: the 1ms sample is
	// evicted and the new maximum takes its place.
	w.Record(2 * wantMax)
	if got := w.Quantiles(100)[0]; got != 2*wantMax {
		t.Fatalf("post-wrap Quantiles(100) = %v, want %v", got, 2*wantMax)
	}
	qs := w.Quantiles(1)
	if qs[0] != 2*time.Millisecond {
		t.Fatalf("post-wrap minimum = %v, want 2ms (slot 0 overwritten)", qs[0])
	}
}

// TestWindowConcurrentRecordQuantile races on-demand Quantiles snapshots
// against writers continuously wrapping a tiny ring — under -race this
// pins down that snapshot reads and slot overwrites stay torn-free.
func TestWindowConcurrentRecordQuantile(t *testing.T) {
	w := NewWindow(windowRefreshEvery, 50)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				w.Record(time.Duration(g+i) * time.Microsecond)
				select {
				case <-stop:
					return
				default:
				}
			}
		}(g)
	}
	for i := 0; i < 500; i++ {
		_ = w.Quantiles(95)[0]
		_ = w.Quantiles(50, 99)
		_ = w.Tracked(0)
	}
	close(stop)
	wg.Wait()
	if w.Count() == 0 {
		t.Fatal("no samples recorded")
	}
}

// TestWindowConcurrent hammers Record/Tracked/Quantiles from many
// goroutines; run under -race this is the lock-cheapness contract.
func TestWindowConcurrent(t *testing.T) {
	w := NewWindow(256, 50, 99)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				w.Record(time.Duration(g*1000+i) * time.Microsecond)
				if i%100 == 0 {
					_ = w.Tracked(0)
					_ = w.Quantiles(95)[0]
				}
			}
		}(g)
	}
	wg.Wait()
	if w.Count() != 16000 {
		t.Fatalf("count = %d, want 16000", w.Count())
	}
	if w.Tracked(1) == 0 {
		t.Fatal("tracked p99 never refreshed")
	}
}
