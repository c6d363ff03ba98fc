package kmeans

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"jdvs/internal/vecmath"
)

// gaussianBlobs generates n points around k well-separated centers.
func gaussianBlobs(rng *rand.Rand, k, n, dim int, sep, noise float64) (data []float32, centers []float32, labels []int) {
	centers = make([]float32, k*dim)
	for c := 0; c < k; c++ {
		for d := 0; d < dim; d++ {
			centers[c*dim+d] = float32(rng.NormFloat64() * sep)
		}
	}
	data = make([]float32, 0, n*dim)
	labels = make([]int, 0, n)
	for i := 0; i < n; i++ {
		c := rng.Intn(k)
		labels = append(labels, c)
		for d := 0; d < dim; d++ {
			data = append(data, centers[c*dim+d]+float32(rng.NormFloat64()*noise))
		}
	}
	return data, centers, labels
}

func TestTrainValidation(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
		data []float32
	}{
		{"zero K", Config{K: 0, Dim: 2}, []float32{1, 2}},
		{"zero Dim", Config{K: 2, Dim: 0}, []float32{1, 2}},
		{"ragged data", Config{K: 2, Dim: 3}, []float32{1, 2}},
		{"empty data", Config{K: 2, Dim: 2}, nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Train(tt.cfg, tt.data); err == nil {
				t.Errorf("Train(%+v) succeeded, want error", tt.cfg)
			}
		})
	}
}

func TestTrainRecoversSeparatedClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const k, n, dim = 6, 1200, 8
	data, _, labels := gaussianBlobs(rng, k, n, dim, 10, 0.2)

	cb, err := Train(Config{K: k, Dim: dim, Seed: 1}, data)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if cb.K != k || cb.Dim != dim {
		t.Fatalf("codebook shape %dx%d, want %dx%d", cb.K, cb.Dim, k, dim)
	}

	// With well-separated blobs, points of the same true cluster must land
	// in the same codebook cell for the overwhelming majority of pairs.
	assign := make([]int, n)
	for i := 0; i < n; i++ {
		assign[i] = cb.Assign(data[i*dim : (i+1)*dim])
	}
	// Majority cell per true label.
	cellOf := make(map[int]map[int]int)
	for i, lab := range labels {
		if cellOf[lab] == nil {
			cellOf[lab] = make(map[int]int)
		}
		cellOf[lab][assign[i]]++
	}
	agree := 0
	for i, lab := range labels {
		best, bestN := -1, 0
		for cell, cnt := range cellOf[lab] {
			if cnt > bestN {
				best, bestN = cell, cnt
			}
		}
		if assign[i] == best {
			agree++
		}
	}
	if frac := float64(agree) / float64(n); frac < 0.95 {
		t.Errorf("cluster purity %.3f, want >= 0.95", frac)
	}
}

// TestAssignIsNearestCentroid verifies the core IVF invariant: Assign
// always returns the argmin-distance centroid.
func TestAssignIsNearestCentroid(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const k, n, dim = 16, 400, 6
	data, _, _ := gaussianBlobs(rng, 4, n, dim, 3, 1.0)
	cb, err := Train(Config{K: k, Dim: dim, Seed: 2}, data)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	centroid := func(c int) []float32 { return cb.Centroids[c*dim : (c+1)*dim] }
	for trial := 0; trial < 200; trial++ {
		v := make([]float32, dim)
		for d := range v {
			v[d] = float32(rng.NormFloat64() * 4)
		}
		got := cb.Assign(v)
		want := 0
		wantDist := vecmath.L2Squared(v, centroid(0))
		for c := 1; c < k; c++ {
			if d := vecmath.L2Squared(v, centroid(c)); d < wantDist {
				want, wantDist = c, d
			}
		}
		if got != want {
			t.Fatalf("Assign = %d (dist %v), argmin = %d (dist %v)",
				got, vecmath.L2Squared(v, centroid(got)), want, wantDist)
		}
	}
}

func TestTrainDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data, _, _ := gaussianBlobs(rng, 3, 300, 4, 5, 0.5)
	a, err := Train(Config{K: 8, Dim: 4, Seed: 99}, data)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(Config{K: 8, Dim: 4, Seed: 99}, data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Centroids {
		if a.Centroids[i] != b.Centroids[i] {
			t.Fatalf("same seed produced different centroids at %d", i)
		}
	}
}

// atProcs runs f with GOMAXPROCS set to procs, then restores it.
func atProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// TestTrainSameAtAnyGOMAXPROCS: the assignment step and the k-means++
// distance update run across the cores, yet the centroids are bitwise
// those of a serial run.
func TestTrainSameAtAnyGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	data, _, _ := gaussianBlobs(rng, 16, 4000, 8, 3, 1)
	train := func(procs int) (cb *Codebook) {
		atProcs(procs, func() {
			var err error
			if cb, err = Train(Config{K: 64, Dim: 8, Seed: 5}, data); err != nil {
				t.Fatal(err)
			}
		})
		return cb
	}
	want := train(1)
	for _, procs := range []int{2, 4} {
		got := train(procs)
		if got.Iters != want.Iters {
			t.Fatalf("GOMAXPROCS %d: %d iterations, serial %d", procs, got.Iters, want.Iters)
		}
		for i := range want.Centroids {
			if math.Float32bits(got.Centroids[i]) != math.Float32bits(want.Centroids[i]) {
				t.Fatalf("GOMAXPROCS %d: centroid float %d is %v, serial %v", procs, i, got.Centroids[i], want.Centroids[i])
			}
		}
	}
}

// TestLowerMinDistSameAtAnyGOMAXPROCS: the k-means++ total is summed in
// row order after the parallel update, so its bits are the serial sum's at
// any GOMAXPROCS. Summing it per worker chunk would reassociate the adds
// and change the rounding, which the centroid check above would rarely
// see: the total only scales the sampling target, so an ulp of it seldom
// moves a pick. The rows span a wide range of magnitudes, so a
// reassociated float64 sum rounds differently.
func TestLowerMinDistSameAtAnyGOMAXPROCS(t *testing.T) {
	const n, dim, rounds = 20000, 4, 8
	rng := rand.New(rand.NewSource(12))
	data := make([]float32, n*dim)
	for i := 0; i < n; i++ {
		scale := math.Exp(rng.NormFloat64() * 4)
		for d := 0; d < dim; d++ {
			data[i*dim+d] = float32(rng.NormFloat64() * scale)
		}
	}
	run := func(procs int) (totals []float64, minDist []float64) {
		minDist = make([]float64, n)
		for i := range minDist {
			minDist[i] = math.Inf(1)
		}
		atProcs(procs, func() {
			for c := 0; c < rounds; c++ {
				totals = append(totals, lowerMinDist(data, dim, data[c*dim:(c+1)*dim], minDist))
			}
		})
		return totals, minDist
	}
	wantTotals, wantMin := run(1)
	for _, procs := range []int{2, 3, 4} {
		totals, minDist := run(procs)
		for c := range wantTotals {
			if math.Float64bits(totals[c]) != math.Float64bits(wantTotals[c]) {
				t.Fatalf("GOMAXPROCS %d round %d: total %v, serial %v", procs, c, totals[c], wantTotals[c])
			}
		}
		for i := range wantMin {
			if math.Float64bits(minDist[i]) != math.Float64bits(wantMin[i]) {
				t.Fatalf("GOMAXPROCS %d: row %d distance %v, serial %v", procs, i, minDist[i], wantMin[i])
			}
		}
	}
}

func TestTrainMoreCentroidsThanPoints(t *testing.T) {
	// 3 distinct points, 8 centroids: all centroids must still be usable
	// (no NaNs, assignment still works).
	data := []float32{0, 0, 10, 0, 0, 10}
	cb, err := Train(Config{K: 8, Dim: 2, Seed: 3}, data)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	for i, v := range cb.Centroids {
		if v != v { // NaN check
			t.Fatalf("centroid component %d is NaN", i)
		}
	}
	if got := cb.Assign([]float32{9, 1}); got < 0 || got >= 8 {
		t.Fatalf("Assign out of range: %d", got)
	}
}

func TestTrainIdenticalPoints(t *testing.T) {
	// All points identical: seeding must not divide by zero.
	data := make([]float32, 50*3)
	for i := range data {
		data[i] = 1
	}
	cb, err := Train(Config{K: 4, Dim: 3, Seed: 4}, data)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if cb.Assign([]float32{1, 1, 1}) < 0 {
		t.Fatal("assignment failed")
	}
}

// TestLloydReducesInertia checks that training lowers total within-cluster
// distance versus the initial seeding (a monotonicity sanity check).
func TestLloydReducesInertia(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const k, n, dim = 8, 800, 6
	data, _, _ := gaussianBlobs(rng, k, n, dim, 6, 1.0)

	inertia := func(cb *Codebook) float64 {
		var total float64
		for i := 0; i < n; i++ {
			_, d := vecmath.NearestCentroid(data[i*dim:(i+1)*dim], cb.Centroids, dim)
			total += float64(d)
		}
		return total
	}
	one, err := Train(Config{K: k, Dim: dim, Seed: 10, MaxIters: 1}, data)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Train(Config{K: k, Dim: dim, Seed: 10, MaxIters: 30}, data)
	if err != nil {
		t.Fatal(err)
	}
	if iFull, iOne := inertia(full), inertia(one); iFull > iOne*1.001 {
		t.Errorf("30-iter inertia %.1f worse than 1-iter %.1f", iFull, iOne)
	}
}
