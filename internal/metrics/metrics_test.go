package metrics

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Percentile(99) != 0 {
		t.Fatal("zero histogram not empty")
	}
	h.Record(100 * time.Millisecond)
	h.Record(200 * time.Millisecond)
	h.Record(300 * time.Millisecond)
	if h.Count() != 3 {
		t.Fatalf("Count = %d", h.Count())
	}
	if m := h.Mean(); m != 200*time.Millisecond {
		t.Fatalf("Mean = %s, want 200ms", m)
	}
	if h.Max() != 300*time.Millisecond {
		t.Fatalf("Max = %s", h.Max())
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Record(-5 * time.Second)
	if h.Max() != 0 || h.Count() != 1 {
		t.Fatalf("negative record mishandled: max=%s count=%d", h.Max(), h.Count())
	}
}

// TestPercentileAccuracy: bucketed percentiles must be within the bucket
// resolution (~6%) of exact order statistics.
func TestPercentileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h Histogram
	samples := make([]time.Duration, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Log-uniform between 1µs and 1s — spans many octaves.
		exp := rng.Float64() * 6 // 10^0 .. 10^6 microseconds
		d := time.Duration(math10(exp) * float64(time.Microsecond))
		samples = append(samples, d)
		h.Record(d)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, p := range []float64{50, 90, 99, 99.9} {
		exact := samples[int(p/100*float64(len(samples)))-1]
		got := h.Percentile(p)
		lo := float64(exact) * 0.85
		hi := float64(exact) * 1.15
		if float64(got) < lo || float64(got) > hi {
			t.Errorf("p%v = %s, exact %s (outside ±15%%)", p, got, exact)
		}
	}
}

func math10(x float64) float64 {
	r := 1.0
	for x >= 1 {
		r *= 10
		x--
	}
	if x > 0 {
		// linear interpolation within the final decade is fine for test data
		r *= 1 + 9*x
	}
	return r
}

func TestBucketMonotone(t *testing.T) {
	prev := -1
	for ns := uint64(0); ns < 1<<22; ns += 97 {
		b := bucketFor(ns)
		if b < prev {
			t.Fatalf("bucketFor not monotone at %d: %d < %d", ns, b, prev)
		}
		prev = b
		if low := bucketLow(b); low > ns {
			t.Fatalf("bucketLow(%d)=%d exceeds value %d", b, low, ns)
		}
	}
}

func TestBucketLowInverse(t *testing.T) {
	for b := 0; b < nBuckets; b++ {
		low := bucketLow(b)
		if got := bucketFor(low); got != b {
			t.Fatalf("bucketFor(bucketLow(%d)) = %d", b, got)
		}
	}
}

func TestHistogramConcurrentRecord(t *testing.T) {
	var h Histogram
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Record(time.Duration(i%1000) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("Count = %d, want %d", h.Count(), workers*per)
	}
}

func TestCDF(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	pts := h.CDF(0)
	if len(pts) == 0 {
		t.Fatal("empty CDF")
	}
	if last := pts[len(pts)-1]; last.Fraction != 1.0 {
		t.Fatalf("CDF does not reach 1.0: %v", last)
	}
	prevF := 0.0
	prevL := time.Duration(-1)
	for _, p := range pts {
		if p.Fraction < prevF || p.Latency <= prevL {
			t.Fatalf("CDF not monotone: %+v", pts)
		}
		prevF, prevL = p.Fraction, p.Latency
	}
	// Downsampling keeps the terminal point.
	small := h.CDF(5)
	if len(small) > 5 {
		t.Fatalf("downsample returned %d points", len(small))
	}
	if small[len(small)-1].Fraction != 1.0 {
		t.Fatal("downsampled CDF lost the 1.0 point")
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("Value = %d", c.Value())
	}
}

func TestHourlySeries(t *testing.T) {
	s := NewHourlySeries()
	s.RecordUpdate(11, "addition", 5*time.Millisecond)
	s.RecordUpdate(11, "addition", 7*time.Millisecond)
	s.RecordUpdate(11, "deletion", time.Millisecond)
	s.RecordUpdate(3, "update", 2*time.Millisecond)
	s.RecordUpdate(-1, "update", time.Millisecond) // ignored
	s.RecordUpdate(24, "update", time.Millisecond) // ignored

	if got := s.Kinds[11].Additions.Value(); got != 2 {
		t.Fatalf("hour 11 additions = %d", got)
	}
	if got := s.Kinds[11].Total(); got != 3 {
		t.Fatalf("hour 11 total = %d", got)
	}
	if got := s.Kinds[3].Updates.Value(); got != 1 {
		t.Fatalf("hour 3 updates = %d", got)
	}
}

func TestQuantiles(t *testing.T) {
	samples := []time.Duration{5, 1, 4, 2, 3}
	qs := Quantiles(samples, 50, 100)
	if qs[0] != 3 {
		t.Fatalf("p50 = %d, want 3", qs[0])
	}
	if qs[1] != 5 {
		t.Fatalf("p100 = %d, want 5", qs[1])
	}
	empty := Quantiles(nil, 50)
	if len(empty) != 1 || empty[0] != 0 {
		t.Fatalf("empty quantiles = %v", empty)
	}
}
