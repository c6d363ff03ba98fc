// Package kmeans trains the IVF codebook used by the inverted index.
//
// The paper (§2.2) classifies every image into one of N inverted lists by
// running "the k-mean algorithm on a set of training data set (i.e., image
// features)" and assigning each image to its nearest centroid. This package
// implements k-means++ seeding followed by Lloyd iterations, fully
// deterministic for a given seed so that index builds are reproducible:
// the per-row distance work runs on every core, but every floating-point
// sum is taken serially in row order, so the centroids are bitwise the
// same at any GOMAXPROCS.
package kmeans

import (
	"errors"
	"fmt"
	"math/rand"

	"jdvs/internal/parallel"
	"jdvs/internal/vecmath"
)

// Config controls a training run.
type Config struct {
	// K is the number of centroids (inverted lists). Required, > 0.
	K int
	// Dim is the feature dimensionality. Required, > 0.
	Dim int
	// MaxIters bounds Lloyd iterations. Defaults to 25.
	MaxIters int
	// Tolerance stops iteration early when the mean squared centroid
	// movement falls below it. Defaults to 1e-4.
	Tolerance float64
	// Seed makes the run deterministic. A zero seed is a valid seed.
	Seed int64
}

func (c *Config) fill() error {
	if c.K <= 0 {
		return errors.New("kmeans: K must be positive")
	}
	if c.Dim <= 0 {
		return errors.New("kmeans: Dim must be positive")
	}
	if c.MaxIters <= 0 {
		c.MaxIters = 25
	}
	if c.Tolerance <= 0 {
		c.Tolerance = 1e-4
	}
	return nil
}

// Codebook is a trained set of centroids: a flat row-major K×Dim matrix.
type Codebook struct {
	K         int
	Dim       int
	Centroids []float32
	// Iters is the number of Lloyd iterations actually performed.
	Iters int
}

// Assign returns the index of the centroid nearest to v.
func (cb *Codebook) Assign(v []float32) int {
	idx, _ := vecmath.NearestCentroid(v, cb.Centroids, cb.Dim)
	return idx
}

// AssignN returns the indices of the n nearest centroids in ascending
// distance order (for multi-probe search).
func (cb *Codebook) AssignN(v []float32, n int) []int {
	return vecmath.TopCentroids(v, cb.Centroids, cb.Dim, n)
}

// Centroid returns centroid i as a sub-slice of the flat matrix. Callers
// must not modify it.
func (cb *Codebook) Centroid(i int) []float32 {
	return cb.Centroids[i*cb.Dim : (i+1)*cb.Dim]
}

// Train runs k-means over the training vectors. data is a flat row-major
// matrix of n rows of cfg.Dim columns. If fewer distinct vectors than K are
// supplied, the surplus centroids are seeded from random perturbations of
// existing rows so the codebook always has exactly K usable centroids.
func Train(cfg Config, data []float32) (*Codebook, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if len(data)%cfg.Dim != 0 {
		return nil, fmt.Errorf("kmeans: data length %d is not a multiple of dim %d", len(data), cfg.Dim)
	}
	n := len(data) / cfg.Dim
	if n == 0 {
		return nil, errors.New("kmeans: no training data")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	row := func(i int) []float32 { return data[i*cfg.Dim : (i+1)*cfg.Dim] }

	centroids := seedPlusPlus(cfg, data, n, rng)

	assign := make([]int, n)
	counts := make([]int, cfg.K)
	sums := make([]float32, cfg.K*cfg.Dim)
	iters := 0
	for iter := 0; iter < cfg.MaxIters; iter++ {
		iters = iter + 1
		// Assignment step, across the cores: each row's result lands at
		// its own index.
		parallel.For(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				assign[i], _ = vecmath.NearestCentroid(row(i), centroids, cfg.Dim)
			}
		})
		// Update step, serial: the centroid sums are float reductions, and
		// their order fixes their rounding.
		for i := range sums {
			sums[i] = 0
		}
		for i := range counts {
			counts[i] = 0
		}
		for i := 0; i < n; i++ {
			c := assign[i]
			counts[c]++
			vecmath.Add(sums[c*cfg.Dim:(c+1)*cfg.Dim], row(i))
		}
		var movement float64
		for c := 0; c < cfg.K; c++ {
			dst := centroids[c*cfg.Dim : (c+1)*cfg.Dim]
			if counts[c] == 0 {
				// Empty cluster: reseed from a random data row so no
				// inverted list is permanently dead.
				src := row(rng.Intn(n))
				movement += float64(vecmath.L2Squared(dst, src))
				copy(dst, src)
				continue
			}
			inv := 1 / float32(counts[c])
			moved := float32(0)
			for d := 0; d < cfg.Dim; d++ {
				nv := sums[c*cfg.Dim+d] * inv
				diff := nv - dst[d]
				moved += diff * diff
				dst[d] = nv
			}
			movement += float64(moved)
		}
		if movement/float64(cfg.K) < cfg.Tolerance {
			break
		}
	}
	return &Codebook{K: cfg.K, Dim: cfg.Dim, Centroids: centroids, Iters: iters}, nil
}

// seedPlusPlus performs k-means++ initialisation: the first centroid is a
// uniform random row; each subsequent centroid is sampled with probability
// proportional to its squared distance from the nearest centroid chosen so
// far.
func seedPlusPlus(cfg Config, data []float32, n int, rng *rand.Rand) []float32 {
	centroids := make([]float32, cfg.K*cfg.Dim)
	row := func(i int) []float32 { return data[i*cfg.Dim : (i+1)*cfg.Dim] }

	copy(centroids[:cfg.Dim], row(rng.Intn(n)))
	// minDist[i] is the squared distance from row i to its nearest centroid
	// chosen so far; maintained incrementally so seeding is O(K·n·Dim).
	minDist := make([]float64, n)
	var total float64
	for i := 0; i < n; i++ {
		minDist[i] = float64(vecmath.L2Squared(row(i), centroids[:cfg.Dim]))
		total += minDist[i]
	}
	for c := 1; c < cfg.K; c++ {
		dst := centroids[c*cfg.Dim : (c+1)*cfg.Dim]
		if total == 0 {
			// All points coincide with existing centroids; perturb a random
			// row slightly so that we still end up with K distinct lists.
			src := row(rng.Intn(n))
			for d := 0; d < cfg.Dim; d++ {
				dst[d] = src[d] + float32(rng.NormFloat64()*1e-3)
			}
			continue
		}
		target := rng.Float64() * total
		var acc float64
		pick := n - 1
		for i := 0; i < n; i++ {
			acc += minDist[i]
			if acc >= target {
				pick = i
				break
			}
		}
		copy(dst, row(pick))
		total = lowerMinDist(data, cfg.Dim, dst, minDist)
	}
	return centroids
}

// lowerMinDist lowers each row's minDist to its squared distance from c and
// returns the new total. The per-row work runs across the cores; the total
// is summed after it, serially in row order, so it rounds the same at any
// GOMAXPROCS.
func lowerMinDist(data []float32, dim int, c []float32, minDist []float64) float64 {
	parallel.For(len(minDist), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if d := float64(vecmath.L2Squared(data[i*dim:(i+1)*dim], c)); d < minDist[i] {
				minDist[i] = d
			}
		}
	})
	var total float64
	for _, d := range minDist {
		total += d
	}
	return total
}
