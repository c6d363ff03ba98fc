package vecmath

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps*(1+math.Abs(a)+math.Abs(b))
}

func TestL2SquaredKnown(t *testing.T) {
	tests := []struct {
		name string
		a, b []float32
		want float32
	}{
		{"zero", []float32{0, 0, 0}, []float32{0, 0, 0}, 0},
		{"unit-axes", []float32{1, 0}, []float32{0, 1}, 2},
		{"3-4-5", []float32{0, 0}, []float32{3, 4}, 25},
		{"negatives", []float32{-1, -2, -3}, []float32{1, 2, 3}, 4 + 16 + 36},
		{"single", []float32{2}, []float32{5}, 9},
		{"len5-unrolled-tail", []float32{1, 1, 1, 1, 1}, []float32{0, 0, 0, 0, 0}, 5},
		{"empty", nil, nil, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := L2Squared(tt.a, tt.b); got != tt.want {
				t.Errorf("L2Squared(%v,%v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestL2SquaredPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	L2Squared([]float32{1, 2}, []float32{1})
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	Dot([]float32{1, 2, 3}, []float32{1})
}

// TestL2SquaredMatchesNaive cross-checks the unrolled loop against a
// straightforward implementation across many dimensions (odd lengths hit
// the scalar tail).
func TestL2SquaredMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for dim := 0; dim <= 67; dim++ {
		a := make([]float32, dim)
		b := make([]float32, dim)
		for i := range a {
			a[i] = float32(rng.NormFloat64())
			b[i] = float32(rng.NormFloat64())
		}
		var want float64
		for i := range a {
			d := float64(a[i]) - float64(b[i])
			want += d * d
		}
		got := float64(L2Squared(a, b))
		if !almostEqual(got, want, 1e-5) {
			t.Errorf("dim %d: unrolled %v, naive %v", dim, got, want)
		}
	}
}

func TestDotMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for dim := 0; dim <= 67; dim++ {
		a := make([]float32, dim)
		b := make([]float32, dim)
		for i := range a {
			a[i] = float32(rng.NormFloat64())
			b[i] = float32(rng.NormFloat64())
		}
		var want float64
		for i := range a {
			want += float64(a[i]) * float64(b[i])
		}
		got := float64(Dot(a, b))
		if !almostEqual(got, want, 1e-5) {
			t.Errorf("dim %d: unrolled %v, naive %v", dim, got, want)
		}
	}
}

// Property: distance symmetry and identity.
func TestL2SquaredProperties(t *testing.T) {
	f := func(raw []byte) bool {
		// Derive two equal-length vectors from the fuzz input.
		n := len(raw) / 2
		a := make([]float32, n)
		b := make([]float32, n)
		for i := 0; i < n; i++ {
			a[i] = float32(int8(raw[i])) / 16
			b[i] = float32(int8(raw[n+i])) / 16
		}
		sym := L2Squared(a, b) == L2Squared(b, a)
		ident := L2Squared(a, a) == 0
		nonneg := L2Squared(a, b) >= 0
		return sym && ident && nonneg
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNormalize(t *testing.T) {
	v := []float32{3, 4}
	Normalize(v)
	if n := Norm(v); !almostEqual(float64(n), 1, 1e-6) {
		t.Errorf("norm after Normalize = %v, want 1", n)
	}
	// Zero vector unchanged.
	z := []float32{0, 0, 0}
	Normalize(z)
	for _, x := range z {
		if x != 0 {
			t.Errorf("zero vector mutated: %v", z)
		}
	}
}

func TestAdd(t *testing.T) {
	dst := []float32{1, 2, 3}
	Add(dst, []float32{10, 20, 30})
	want := []float32{11, 22, 33}
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("Add: got %v, want %v", dst, want)
		}
	}
}

func TestNearestCentroid(t *testing.T) {
	centroids := []float32{
		0, 0, // c0
		10, 0, // c1
		0, 10, // c2
	}
	tests := []struct {
		v    []float32
		want int
	}{
		{[]float32{1, 1}, 0},
		{[]float32{9, 1}, 1},
		{[]float32{1, 9}, 2},
		{[]float32{5.1, 0}, 1}, // just past the midpoint
	}
	for _, tt := range tests {
		got, _ := NearestCentroid(tt.v, centroids, 2)
		if got != tt.want {
			t.Errorf("NearestCentroid(%v) = %d, want %d", tt.v, got, tt.want)
		}
	}
}

// nearestByCalls is NearestCentroid's reference: one L2Squared call per
// centroid, keeping the first strict minimum.
func nearestByCalls(v, centroids []float32, dim int) (int, float32) {
	best, bestDist := 0, L2Squared(v, centroids[:dim])
	for c := 1; c < len(centroids)/dim; c++ {
		if d := L2Squared(v, centroids[c*dim:(c+1)*dim]); d < bestDist {
			best, bestDist = c, d
		}
	}
	return best, bestDist
}

// TestNearestCentroidMatchesCalls: the one-loop kernel returns the index
// and the distance bits of the L2Squared reference, at every dim the build
// uses (4 is the PQ subspace path) and every k up to 300, on random rows,
// on rows with exact ties (the lowest index wins) and on NaN inputs.
func TestNearestCentroidMatchesCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	nan := float32(math.NaN())
	check := func(label string, v, cents []float32, dim int) {
		t.Helper()
		gi, gd := NearestCentroid(v, cents, dim)
		wi, wd := nearestByCalls(v, cents, dim)
		if gi != wi || math.Float32bits(gd) != math.Float32bits(wd) {
			t.Fatalf("%s dim %d k %d: kernel (%d, %#x), calls (%d, %#x)",
				label, dim, len(cents)/dim, gi, math.Float32bits(gd), wi, math.Float32bits(wd))
		}
	}
	for _, dim := range []int{1, 3, 4, 8, 64} {
		for k := 1; k <= 300; k++ {
			cents := randVec(rng, k*dim)
			v := randVec(rng, dim)
			check("random", v, cents, dim)

			// Ties: the nearest row repeated at a later index, and a
			// query equidistant from two rows.
			if k > 1 {
				dup := append([]float32(nil), cents...)
				n, _ := nearestByCalls(v, dup, dim)
				copy(dup[(k-1)*dim:], dup[n*dim:(n+1)*dim])
				check("duplicate row", v, dup, dim)
				mirror := append([]float32(nil), cents...)
				for i := 0; i < dim; i++ {
					mirror[(k-1)*dim+i] = 2*v[i] - mirror[i]
				}
				check("mirrored row", v, mirror, dim)
			}
			// Every row the query itself: all distances zero.
			same := make([]float32, 0, k*dim)
			for c := 0; c < k; c++ {
				same = append(same, v...)
			}
			check("all equal", v, same, dim)

			// NaN in the query, in the first row, and in a later row.
			nv := append([]float32(nil), v...)
			nv[rng.Intn(dim)] = nan
			check("NaN query", nv, cents, dim)
			nc := append([]float32(nil), cents...)
			nc[rng.Intn(dim)] = nan
			check("NaN first row", v, nc, dim)
			nc = append(nc[:0], cents...)
			nc[rng.Intn(k*dim)] = nan
			check("NaN row", v, nc, dim)
		}
	}
}

func TestTopCentroidsOrderingAndClamp(t *testing.T) {
	centroids := []float32{
		0, 0,
		1, 0,
		5, 0,
		20, 0,
	}
	got, _ := TopCentroidsInto(nil, nil, []float32{0.4, 0}, centroids, 2, 3)
	want := []int{0, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("TopCentroidsInto returned %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TopCentroidsInto returned %v, want %v", got, want)
		}
	}
	// n larger than k clamps.
	if got, _ := TopCentroidsInto(nil, nil, []float32{0, 0}, centroids, 2, 99); len(got) != 4 {
		t.Fatalf("clamp: got %d centroids, want 4", len(got))
	}
	if got, _ := TopCentroidsInto(nil, nil, []float32{0, 0}, centroids, 2, 0); got != nil {
		t.Fatalf("n=0: got %v, want nil", got)
	}
}

// Property: TopCentroidsInto with n = 1 agrees with NearestCentroid.
func TestTopCentroidsAgreesWithNearest(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const dim, k = 8, 32
	centroids := make([]float32, k*dim)
	for i := range centroids {
		centroids[i] = float32(rng.NormFloat64())
	}
	for trial := 0; trial < 100; trial++ {
		v := make([]float32, dim)
		for i := range v {
			v[i] = float32(rng.NormFloat64())
		}
		best, _ := NearestCentroid(v, centroids, dim)
		top, _ := TopCentroidsInto(nil, nil, v, centroids, dim, 1)
		if len(top) != 1 || top[0] != best {
			t.Fatalf("trial %d: TopCentroidsInto=%v, NearestCentroid=%d", trial, top, best)
		}
	}
}

// TestTopCentroidsIntoMatchesTopCentroids checks that reused scratch
// selects exactly what nil scratch selects, and is actually reused.
func TestTopCentroidsIntoMatchesTopCentroids(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const dim = 8
	centroids := make([]float32, 50*dim)
	for i := range centroids {
		centroids[i] = float32(rng.NormFloat64())
	}
	var idx []int
	var dist []float32
	for trial := 0; trial < 30; trial++ {
		v := make([]float32, dim)
		for i := range v {
			v[i] = float32(rng.NormFloat64())
		}
		n := rng.Intn(60) // sometimes above k to exercise clamping
		want, _ := TopCentroidsInto(nil, nil, v, centroids, dim, n)
		idx, dist = TopCentroidsInto(idx, dist, v, centroids, dim, n)
		if len(idx) != len(want) {
			t.Fatalf("trial %d: len %d, want %d", trial, len(idx), len(want))
		}
		for i := range want {
			if idx[i] != want[i] {
				t.Fatalf("trial %d: idx[%d] = %d, want %d", trial, i, idx[i], want[i])
			}
		}
	}
	// Warmed buffers must be reused, not reallocated.
	idx, dist = TopCentroidsInto(idx, dist, make([]float32, dim), centroids, dim, 10)
	i0, d0 := &idx[0], &dist[0]
	idx, dist = TopCentroidsInto(idx, dist, make([]float32, dim), centroids, dim, 10)
	if &idx[0] != i0 || &dist[0] != d0 {
		t.Fatal("TopCentroidsInto reallocated warmed scratch")
	}
}

// Property: TopCentroidsInto returns distances in ascending order.
func TestTopCentroidsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const dim, k = 6, 24
	centroids := make([]float32, k*dim)
	for i := range centroids {
		centroids[i] = float32(rng.NormFloat64())
	}
	for trial := 0; trial < 50; trial++ {
		v := make([]float32, dim)
		for i := range v {
			v[i] = float32(rng.NormFloat64())
		}
		top, _ := TopCentroidsInto(nil, nil, v, centroids, dim, 8)
		prev := float32(-1)
		for _, c := range top {
			d := L2Squared(v, centroids[c*dim:(c+1)*dim])
			if prev >= 0 && d < prev {
				t.Fatalf("trial %d: centroid distances not ascending", trial)
			}
			prev = d
		}
	}
}
