// Package metrics provides the measurement substrate for the evaluation:
// lock-free latency histograms with percentile queries (Figs. 11(b), 12(b),
// 13(b)), QPS counters (Figs. 12(a), 13(a)) and hourly time-series
// aggregation (Fig. 11).
//
// Histograms are HDR-style: each power-of-two octave of nanoseconds is
// split into 16 linear sub-buckets, giving ≈6% relative quantile error
// across nanoseconds-to-minutes — ample for reproducing the paper's
// latency shapes. Recording is a single atomic increment.
package metrics

import (
	"math"
	"math/bits"
	"sort"
	"sync/atomic"
	"time"
)

const (
	subBits    = 4
	subBuckets = 1 << subBits // 16 sub-buckets per octave
	octaves    = 44           // covers up to ~4.8 hours in nanoseconds
	nBuckets   = octaves * subBuckets
)

// Histogram is a concurrent latency histogram. The zero value is ready to
// use.
type Histogram struct {
	buckets [nBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64 // total nanoseconds
	maxNS   atomic.Uint64
}

func bucketFor(ns uint64) int {
	if ns < subBuckets {
		return int(ns) // first octave is exact
	}
	oct := 63 - leadingZeros64(ns)
	sub := (ns >> (uint(oct) - subBits)) & (subBuckets - 1)
	idx := (oct-subBits+1)*subBuckets + int(sub)
	if idx >= nBuckets {
		return nBuckets - 1
	}
	return idx
}

// bucketLow returns the inclusive lower bound of bucket idx in nanoseconds.
func bucketLow(idx int) uint64 {
	if idx < subBuckets {
		return uint64(idx)
	}
	oct := idx/subBuckets + subBits - 1
	sub := uint64(idx % subBuckets)
	return 1<<uint(oct) | sub<<(uint(oct)-subBits)
}

func leadingZeros64(x uint64) int { return bits.LeadingZeros64(x) }

// Record adds one observation.
func (h *Histogram) Record(d time.Duration) {
	ns := uint64(d.Nanoseconds())
	if d < 0 {
		ns = 0
	}
	h.buckets[bucketFor(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		old := h.maxNS.Load()
		if ns <= old || h.maxNS.CompareAndSwap(old, ns) {
			break
		}
	}
}

// Count returns the number of observations. Only tests call it; it is
// the one accessor that lets them check a value was recorded.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Mean returns the mean observation.
func (h *Histogram) Mean() time.Duration {
	c := h.count.Load()
	if c == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / c)
}

// Max returns the largest observation.
func (h *Histogram) Max() time.Duration { return time.Duration(h.maxNS.Load()) }

// Percentile returns the p-th percentile (0 < p <= 100) as the lower bound
// of the bucket containing that rank.
func (h *Histogram) Percentile(p float64) time.Duration {
	c := h.count.Load()
	if c == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p / 100 * float64(c)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i := 0; i < nBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen >= rank {
			return time.Duration(bucketLow(i))
		}
	}
	return h.Max()
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	Latency  time.Duration
	Fraction float64 // cumulative fraction of observations <= Latency
}

// CDF returns the empirical CDF with up to maxPoints points (bucket
// resolution), suitable for regenerating Fig. 13(b).
func (h *Histogram) CDF(maxPoints int) []CDFPoint {
	total := h.count.Load()
	if total == 0 {
		return nil
	}
	pts := make([]CDFPoint, 0, 64)
	var seen uint64
	for i := 0; i < nBuckets; i++ {
		v := h.buckets[i].Load()
		if v == 0 {
			continue
		}
		seen += v
		pts = append(pts, CDFPoint{
			Latency:  time.Duration(bucketLow(i)),
			Fraction: float64(seen) / float64(total),
		})
	}
	if maxPoints > 0 && len(pts) > maxPoints {
		// Downsample evenly, always keeping the last point (fraction 1.0).
		out := make([]CDFPoint, 0, maxPoints)
		step := float64(len(pts)-1) / float64(maxPoints-1)
		for i := 0; i < maxPoints; i++ {
			out = append(out, pts[int(float64(i)*step+0.5)])
		}
		out[len(out)-1] = pts[len(pts)-1]
		return out
	}
	return pts
}

// Counter is a concurrent event counter.
type Counter struct {
	n atomic.Int64
}

// Inc adds one. Add adds delta. Value reads the total.
func (c *Counter) Inc()            { c.n.Add(1) }
func (c *Counter) Add(delta int64) { c.n.Add(delta) }
func (c *Counter) Value() int64    { return c.n.Load() }

// HourlyKinds is the set of update kinds tracked per hour for Fig. 11(a).
type HourlyKinds struct {
	Updates   Counter
	Additions Counter
	Deletions Counter
}

// Total returns the sum across kinds.
func (k *HourlyKinds) Total() int64 {
	return k.Updates.Value() + k.Additions.Value() + k.Deletions.Value()
}

// HourlySeries aggregates per-hour counts and latency histograms over a
// (simulated) 24-hour day — the exact structure of Figs. 11(a) and 11(b).
type HourlySeries struct {
	Kinds [24]HourlyKinds
	Lat   [24]Histogram
}

// NewHourlySeries returns an empty series.
func NewHourlySeries() *HourlySeries { return &HourlySeries{} }

// RecordUpdate notes one real-time index event of the given kind at hour h
// with processing latency d.
func (s *HourlySeries) RecordUpdate(h int, kind string, d time.Duration) {
	if h < 0 || h > 23 {
		return
	}
	switch kind {
	case "update":
		s.Kinds[h].Updates.Inc()
	case "addition":
		s.Kinds[h].Additions.Inc()
	case "deletion":
		s.Kinds[h].Deletions.Inc()
	}
	s.Lat[h].Record(d)
}

// Quantiles computes exact quantiles from a raw sample (used where the full
// sample is small enough to keep, e.g. per-setting response times in
// Fig. 12(b)). The input is sorted in place.
func Quantiles(samples []time.Duration, qs ...float64) []time.Duration {
	if len(samples) == 0 {
		return make([]time.Duration, len(qs))
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	out := make([]time.Duration, len(qs))
	for i, q := range qs {
		idx := int(math.Ceil(q/100*float64(len(samples)))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(samples) {
			idx = len(samples) - 1
		}
		out[i] = samples[idx]
	}
	return out
}
