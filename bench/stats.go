package main

import (
	"math"
	"sort"
	"time"
)

// percentileLadder lists the percentiles the benchmark is willing to report.
var percentileLadder = []float64{50, 90, 95, 99, 99.9}

// highestPercentile returns the highest rung of the ladder that still has at
// least ten of n samples beyond it; below twenty samples only the median is
// supported.
func highestPercentile(n int) float64 {
	best := percentileLadder[0]
	for _, p := range percentileLadder {
		// Samples ranked above the percentile's own rank; the epsilon
		// keeps 90% of 100 at rank 90 despite binary fractions.
		if n-int(math.Ceil(p/100*float64(n)-1e-9)) >= 10 {
			best = p
		}
	}
	return best
}

// percentile reads the p-th percentile of sorted (nearest rank). Empty input
// reads 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// supported reads the p-th percentile, lowered to what the sample supports.
func supported(sorted []float64, p float64) float64 {
	return percentile(sorted, math.Min(p, highestPercentile(len(sorted))))
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), which is how the
// driver computes spreads.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// highest and lowest return the largest and the smallest value; none
// reads 0.
func highest(v []float64) float64 {
	best := 0.0
	for _, x := range v {
		best = math.Max(best, x)
	}
	return best
}

func lowest(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	best := v[0]
	for _, x := range v {
		best = math.Min(best, x)
	}
	return best
}

// windowPercentiles groups latencies by the window their request was due in
// (atNs, from the phase's start) and returns each full window's p50 and
// tail, the tail lowered to what a window's sample supports. Negative
// latencies (failed requests) are left out.
func windowPercentiles(atNs, latNs []int64, windows int, tail float64) (p50, pTail []float64) {
	groups := make([][]float64, windows)
	for i, at := range atNs {
		if w := int(at / int64(window)); w >= 0 && w < windows && latNs[i] >= 0 {
			groups[w] = append(groups[w], float64(latNs[i])/1e6)
		}
	}
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		sort.Float64s(g)
		p50 = append(p50, percentile(g, 50))
		pTail = append(pTail, supported(g, tail))
	}
	return p50, pTail
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// sortedMs converts nanosecond samples to sorted milliseconds, skipping
// unset (negative) slots.
func sortedMs(ns []int64) []float64 {
	out := make([]float64, 0, len(ns))
	for _, v := range ns {
		if v >= 0 {
			out = append(out, float64(v)/1e6)
		}
	}
	sort.Float64s(out)
	return out
}
