package pq

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"jdvs/internal/vecmath"
)

// benchSetup trains a quantizer over clustered vectors and returns the
// query LUT, the encoded code block, and the raw float rows for the exact
// baseline.
func benchSetup(b *testing.B, n, dim, m int) (lut []float32, codes []byte, rows []float32, q []float32) {
	b.Helper()
	rng := rand.New(rand.NewSource(13))
	rows = clusteredData(rng, n, dim, 32, 0.2)
	cb, err := Train(Config{Dim: dim, M: m, Seed: 1}, rows[:min(n, 2000)*dim])
	if err != nil {
		b.Fatal(err)
	}
	codes = make([]byte, n*m)
	for i := 0; i < n; i++ {
		if err := cb.Encode(rows[i*dim:(i+1)*dim], codes[i*m:(i+1)*m]); err != nil {
			b.Fatal(err)
		}
	}
	q = rows[:dim]
	lut, err = cb.BuildLUT(q, nil)
	if err != nil {
		b.Fatal(err)
	}
	return lut, codes, rows, q
}

// BenchmarkScanKernel compares the per-candidate scoring kernels over a
// contiguous block of n candidates: the exact float path reads dim×4
// bytes per candidate, the ADC path reads m bytes plus m table lookups.
// n is sized so the float rows exceed cache — the production condition
// the ADC path exists for — while the codes and LUT stay resident. This
// is the raw memory-bandwidth trade the IVF-ADC scan path buys.
//
// path=adc is the unbounded 8-bit kernel (ADCScan). path=adc-bounded is
// the same kernel given a bound at the 1st percentile of the block's
// distances: the worst distance of a full selector that keeps one scanned
// code in a hundred, as a list scan's over-fetch does. abandoned/code
// reports the share of codes dropped after their first four lookups.
func BenchmarkScanKernel(b *testing.B) {
	const n = 65536
	for _, shape := range []struct{ dim, m int }{{64, 16}, {128, 32}} {
		lut, codes, rows, q := benchSetup(b, n, shape.dim, shape.m)
		out := make([]float32, n)
		sorted := slices.Clone(ADCScan(lut, codes, shape.m, nil))
		slices.Sort(sorted)
		bound := sorted[n/100]
		b.Run(fmt.Sprintf("dim=%d/path=exact", shape.dim), func(b *testing.B) {
			b.SetBytes(int64(n * shape.dim * 4))
			for i := 0; i < b.N; i++ {
				for j := 0; j < n; j++ {
					out[j] = vecmath.L2Squared(q, rows[j*shape.dim:(j+1)*shape.dim])
				}
			}
		})
		b.Run(fmt.Sprintf("dim=%d/path=adc", shape.dim), func(b *testing.B) {
			b.SetBytes(int64(n * shape.m))
			for i := 0; i < b.N; i++ {
				ADCScan(lut, codes, shape.m, out)
			}
		})
		b.Run(fmt.Sprintf("dim=%d/path=adc-bounded", shape.dim), func(b *testing.B) {
			b.SetBytes(int64(n * shape.m))
			for i := 0; i < b.N; i++ {
				ADCScanBounded(lut, codes, shape.m, bound, out)
			}
			b.StopTimer()
			abandoned := 0
			for _, d := range out {
				if math.IsInf(float64(d), 1) {
					abandoned++
				}
			}
			b.ReportMetric(float64(abandoned)/n, "abandoned/code")
		})
	}
}

// BenchmarkBuildLUT is the per-query fixed cost the ADC path pays before
// scanning a single candidate; it amortises over the scan.
func BenchmarkBuildLUT(b *testing.B) {
	lut, _, _, q := benchSetup(b, 2048, 64, 16)
	rng := rand.New(rand.NewSource(21))
	data := clusteredData(rng, 2000, 64, 32, 0.2)
	cb, err := Train(Config{Dim: 64, M: 16, Seed: 1}, data)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lut, err = cb.BuildLUT(q, lut)
		if err != nil {
			b.Fatal(err)
		}
	}
}
