package pq

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"jdvs/internal/vecmath"
)

// clusteredData synthesises n vectors of dim components drawn around nc
// cluster centres — the shape real image features have, and the shape PQ
// compresses well.
func clusteredData(rng *rand.Rand, n, dim, nc int, spread float64) []float32 {
	centres := make([]float32, nc*dim)
	for i := range centres {
		centres[i] = float32(rng.NormFloat64() * 4)
	}
	data := make([]float32, n*dim)
	for i := 0; i < n; i++ {
		c := rng.Intn(nc)
		for d := 0; d < dim; d++ {
			data[i*dim+d] = centres[c*dim+d] + float32(rng.NormFloat64()*spread)
		}
	}
	return data
}

func TestConfigValidation(t *testing.T) {
	if _, err := Train(Config{Dim: 0, M: 4}, nil); err == nil {
		t.Fatal("Dim 0 accepted")
	}
	if _, err := Train(Config{Dim: 64, M: 0}, nil); err == nil {
		t.Fatal("M 0 accepted")
	}
	if _, err := Train(Config{Dim: 64, M: 7}, make([]float32, 64)); err == nil {
		t.Fatal("M not dividing Dim accepted")
	}
	if _, err := Train(Config{Dim: 8, M: 4}, make([]float32, 9)); err == nil {
		t.Fatal("ragged data accepted")
	}
	if _, err := Train(Config{Dim: 8, M: 4}, nil); err == nil {
		t.Fatal("empty data accepted")
	}
}

func TestTrainShapeAndDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := clusteredData(rng, 500, 16, 8, 0.2)
	cb, err := Train(Config{Dim: 16, M: 4, Seed: 9}, data)
	if err != nil {
		t.Fatal(err)
	}
	if err := cb.Valid(); err != nil {
		t.Fatal(err)
	}
	if cb.SubDim != 4 || len(cb.Centroids) != 4*NCentroids*4 {
		t.Fatalf("shape M=%d SubDim=%d len=%d", cb.M, cb.SubDim, len(cb.Centroids))
	}
	cb2, err := Train(Config{Dim: 16, M: 4, Seed: 9}, data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cb.Centroids {
		if cb.Centroids[i] != cb2.Centroids[i] {
			t.Fatalf("training is not deterministic (centroid float %d differs)", i)
		}
	}
}

// TestTrainSameAtAnyGOMAXPROCS: subquantizers train one per worker, and
// each one's k-means fans out again, yet the codebook is bitwise a serial
// run's at both code widths.
func TestTrainSameAtAnyGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	data := clusteredData(rng, 2000, 32, 16, 0.5)
	for _, bits := range []int{8, 4} {
		t.Run(fmt.Sprintf("bits=%d", bits), func(t *testing.T) {
			train := func(procs int) *Codebook {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				cb, err := Train(Config{Dim: 32, M: 8, Bits: bits, Seed: 3}, data)
				if err != nil {
					t.Fatal(err)
				}
				return cb
			}
			want := train(1)
			for _, procs := range []int{2, 4} {
				got := train(procs)
				for i := range want.Centroids {
					if math.Float32bits(got.Centroids[i]) != math.Float32bits(want.Centroids[i]) {
						t.Fatalf("GOMAXPROCS %d: centroid float %d is %v, serial %v", procs, i, got.Centroids[i], want.Centroids[i])
					}
				}
			}
		})
	}
}

// TestEncodeDecodeError: the centroid reconstruction of a code must be
// closer to the source vector than a random other vector is — i.e. the
// quantizer actually quantizes.
func TestEncodeDecodeError(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const dim = 32
	data := clusteredData(rng, 2000, dim, 16, 0.15)
	cb, err := Train(Config{Dim: dim, M: 8, Seed: 3}, data)
	if err != nil {
		t.Fatal(err)
	}
	code := make([]byte, cb.M)
	dec := make([]float32, dim)
	var reconErr, crossErr float64
	for i := 0; i < 200; i++ {
		v := data[i*dim : (i+1)*dim]
		if err := cb.Encode(v, code); err != nil {
			t.Fatal(err)
		}
		if err := cb.Decode(code, dec); err != nil {
			t.Fatal(err)
		}
		reconErr += float64(vecmath.L2Squared(v, dec))
		w := data[((i+1000)%2000)*dim : (((i+1000)%2000)+1)*dim]
		crossErr += float64(vecmath.L2Squared(v, w))
	}
	if reconErr*10 > crossErr {
		t.Fatalf("reconstruction error %.3f not well below cross-vector distance %.3f", reconErr, crossErr)
	}
}

// TestADCDistMatchesDecodedDistance: the LUT sum must equal the exact
// distance between the query and the code's centroid reconstruction (up
// to float accumulation order).
func TestADCDistMatchesDecodedDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const dim = 24
	data := clusteredData(rng, 800, dim, 10, 0.3)
	cb, err := Train(Config{Dim: dim, M: 6, Seed: 5}, data)
	if err != nil {
		t.Fatal(err)
	}
	q := data[:dim]
	lut, err := cb.BuildLUT(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(lut) != cb.LUTSize() {
		t.Fatalf("lut len %d, want %d", len(lut), cb.LUTSize())
	}
	code := make([]byte, cb.M)
	dec := make([]float32, dim)
	for i := 100; i < 150; i++ {
		v := data[i*dim : (i+1)*dim]
		if err := cb.Encode(v, code); err != nil {
			t.Fatal(err)
		}
		if err := cb.Decode(code, dec); err != nil {
			t.Fatal(err)
		}
		adc := float64(ADCDist(lut, code))
		exact := float64(vecmath.L2Squared(q, dec))
		if diff := math.Abs(adc - exact); diff > 1e-3*(1+exact) {
			t.Fatalf("row %d: ADC %.6f vs decoded-exact %.6f", i, adc, exact)
		}
	}
}

// TestADCDistOddM covers the unrolled kernel's tail loop (M not a
// multiple of 4).
func TestADCDistOddM(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, m := range []int{1, 2, 3, 5, 7} {
		dim := m * 4
		data := clusteredData(rng, 400, dim, 6, 0.2)
		cb, err := Train(Config{Dim: dim, M: m, Seed: 1}, data)
		if err != nil {
			t.Fatal(err)
		}
		lut, err := cb.BuildLUT(data[:dim], nil)
		if err != nil {
			t.Fatal(err)
		}
		code := make([]byte, m)
		if err := cb.Encode(data[dim:2*dim], code); err != nil {
			t.Fatal(err)
		}
		var naive float32
		for i, c := range code {
			naive += lut[i*NCentroids+int(c)]
		}
		if got := ADCDist(lut, code); math.Abs(float64(got-naive)) > 1e-4*(1+math.Abs(float64(naive))) {
			t.Fatalf("M=%d: ADCDist %.6f, naive %.6f", m, got, naive)
		}
	}
}

func TestADCScanMatchesPerCode(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const dim, m, n = 16, 4, 64
	data := clusteredData(rng, 500, dim, 8, 0.25)
	cb, err := Train(Config{Dim: dim, M: m, Seed: 2}, data)
	if err != nil {
		t.Fatal(err)
	}
	lut, err := cb.BuildLUT(data[:dim], nil)
	if err != nil {
		t.Fatal(err)
	}
	codes := make([]byte, n*m)
	for i := 0; i < n; i++ {
		if err := cb.Encode(data[i*dim:(i+1)*dim], codes[i*m:(i+1)*m]); err != nil {
			t.Fatal(err)
		}
	}
	out := ADCScan(lut, codes, m, nil)
	if len(out) != n {
		t.Fatalf("scan produced %d distances, want %d", len(out), n)
	}
	for i := 0; i < n; i++ {
		if want := ADCDist(lut, codes[i*m:(i+1)*m]); out[i] != want {
			t.Fatalf("code %d: block scan %.6f, per-code %.6f", i, out[i], want)
		}
	}
}

// TestADCScanBoundedContract pins the bounded kernel's contract over
// non-negative random tables (an eighth of the entries zero, so partial
// and full sums tie): a code whose ADCDist is at or below the bound gets
// ADCDist bit for bit, every other code reads above the bound, and an
// infinite bound (ADCScan's) abandons nothing. The bounds include exact
// ADCDist values, so codes sitting on the bound are covered; at M = 4 a
// code's tested partial sum is its full sum.
func TestADCScanBoundedContract(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 512
	inf := float32(math.Inf(1))
	for _, m := range []int{3, 4, 6, 8, 16, 32} {
		lut := make([]float32, m*NCentroids)
		for i := range lut {
			if rng.Intn(8) != 0 {
				lut[i] = float32(rng.ExpFloat64())
			}
		}
		codes := make([]byte, n*m)
		rng.Read(codes)
		want := make([]float32, n)
		for i := range want {
			want[i] = ADCDist(lut, codes[i*m:(i+1)*m])
		}
		sorted := slices.Clone(want)
		slices.Sort(sorted)
		bounds := []float32{-1, inf}
		for _, q := range []float64{0, 0.01, 0.1, 0.5, 0.9, 1} {
			bounds = append(bounds, sorted[int(q*float64(n-1))])
		}
		for _, bound := range bounds {
			got := ADCScanBounded(lut, codes, m, bound, nil)
			for i, d := range got {
				switch {
				case want[i] <= bound && math.Float32bits(d) != math.Float32bits(want[i]):
					t.Fatalf("M=%d bound=%v code %d: got %v, ADCDist %v", m, bound, i, d, want[i])
				case want[i] > bound && !(d > bound):
					t.Fatalf("M=%d bound=%v code %d: got %v, not above the bound (ADCDist %v)", m, bound, i, d, want[i])
				}
			}
		}
	}
}

func TestBuildLUTReusesBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const dim = 16
	data := clusteredData(rng, 300, dim, 4, 0.2)
	cb, err := Train(Config{Dim: dim, M: 4, Seed: 2}, data)
	if err != nil {
		t.Fatal(err)
	}
	lut, err := cb.BuildLUT(data[:dim], nil)
	if err != nil {
		t.Fatal(err)
	}
	lut2, err := cb.BuildLUT(data[dim:2*dim], lut)
	if err != nil {
		t.Fatal(err)
	}
	if &lut[0] != &lut2[0] {
		t.Fatal("BuildLUT reallocated a sufficient buffer")
	}
}
