// Package vecmath provides small, allocation-free float32 vector primitives
// used throughout the index and search paths: squared Euclidean distance,
// dot products, norms and batched distance computation.
//
// All functions panic on dimension mismatch: a mismatch is a programming
// error (features of different dimensionality can never be compared), and
// silently truncating would corrupt search results.
package vecmath

import "math"

// L2Squared returns the squared Euclidean distance between a and b.
// The inner loop is unrolled by four, which the compiler turns into
// reasonably tight code without any assembly.
func L2Squared(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("vecmath: dimension mismatch")
	}
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s0 += d * d
	}
	return s0 + s1 + s2 + s3
}

// Dot returns the inner product of a and b.
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("vecmath: dimension mismatch")
	}
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return s0 + s1 + s2 + s3
}

// Norm returns the Euclidean norm of v.
func Norm(v []float32) float32 {
	return float32(math.Sqrt(float64(Dot(v, v))))
}

// Normalize scales v in place to unit Euclidean norm. A zero vector is left
// unchanged (there is no meaningful direction to preserve).
func Normalize(v []float32) {
	n := Norm(v)
	if n == 0 {
		return
	}
	inv := 1 / n
	for i := range v {
		v[i] *= inv
	}
}

// Add accumulates src into dst element-wise.
func Add(dst, src []float32) {
	if len(dst) != len(src) {
		panic("vecmath: dimension mismatch")
	}
	for i := range dst {
		dst[i] += src[i]
	}
}

// NearestCentroid returns the index of the centroid closest (squared L2) to
// v, along with that squared distance. centroids is a flat row-major matrix
// of k rows of dim columns. It panics if the layout is inconsistent or k is
// zero.
//
// The result is bit-identical to calling L2Squared on every row and keeping
// the first strict minimum: each row's distance is summed in L2Squared's
// order (one squared difference per accumulator, then s0+s1+s2+s3), ties go
// to the lowest index, and a NaN first distance is never displaced. But the
// rows are scored in one loop, with no call and no length check per
// centroid, and dim 4 — every PQ subspace at the default M = Dim/4 — has a
// loop of its own. That per-centroid overhead, not the arithmetic, was the
// cost of a 4-component distance.
func NearestCentroid(v []float32, centroids []float32, dim int) (best int, bestDist float32) {
	if dim <= 0 || len(centroids)%dim != 0 {
		panic("vecmath: bad centroid layout")
	}
	if len(centroids) == 0 {
		panic("vecmath: no centroids")
	}
	if len(v) != dim {
		panic("vecmath: dimension mismatch")
	}
	if dim == 4 {
		return nearest4(v, centroids)
	}
	return nearestN(v, centroids)
}

// nearest4 is NearestCentroid for dim 4. The explicit float32 conversions
// pin the rounding of each square: the language lets a compiler fuse a
// multiply into the add that consumes it, which would change the sum on
// platforms with fused multiply-add.
//
// It is kept beside nearestN because it is measured faster on a 2-core
// Xeon, 6 alternating rounds: BenchmarkNearestCentroid/dim=4/k=256 takes
// 0.94–1.61 µs here against 1.81–2.50 µs through nearestN, and a whole
// BenchmarkFullBuild 2.05–2.23 s against 2.27–2.62 s (5 rounds, 5/5).
func nearest4(v, centroids []float32) (best int, bestDist float32) {
	v0, v1, v2, v3 := v[0], v[1], v[2], v[3]
	for c := 0; len(centroids) >= 4; c++ {
		x := centroids[:4:4]
		centroids = centroids[4:]
		d0 := v0 - x[0]
		d1 := v1 - x[1]
		d2 := v2 - x[2]
		d3 := v3 - x[3]
		d := float32(d0*d0) + float32(d1*d1) + float32(d2*d2) + float32(d3*d3)
		if c == 0 || d < bestDist {
			best, bestDist = c, d
		}
	}
	return best, bestDist
}

// nearestN is NearestCentroid for any dim: L2Squared's loop, inlined over
// consecutive rows of len(v) floats.
func nearestN(v, centroids []float32) (best int, bestDist float32) {
	for c := 0; len(centroids) >= len(v); c++ {
		x := centroids[:len(v):len(v)]
		centroids = centroids[len(v):]
		var s0, s1, s2, s3 float32
		i := 0
		for ; i+4 <= len(x); i += 4 {
			d0 := v[i] - x[i]
			d1 := v[i+1] - x[i+1]
			d2 := v[i+2] - x[i+2]
			d3 := v[i+3] - x[i+3]
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
		for ; i < len(x); i++ {
			d := v[i] - x[i]
			s0 += d * d
		}
		if d := s0 + s1 + s2 + s3; c == 0 || d < bestDist {
			best, bestDist = c, d
		}
	}
	return best, bestDist
}

// TopCentroidsInto returns the indices of the n closest centroids to v in
// ascending distance order. It is used to select which inverted lists to
// probe. n is clamped to the number of centroids.
//
// idx receives the selected centroid indices and dist carries their
// distances during selection. Both are grown only when too small (nil is
// fine), so a pooled pair of buffers makes repeated probe selection
// allocation-free. It returns the filled index slice and the (possibly
// regrown) distance scratch for the caller to retain.
func TopCentroidsInto(idx []int, dist []float32, v, centroids []float32, dim, n int) ([]int, []float32) {
	if dim <= 0 || len(centroids)%dim != 0 {
		panic("vecmath: bad centroid layout")
	}
	k := len(centroids) / dim
	if n > k {
		n = k
	}
	if n <= 0 {
		return idx[:0], dist[:0]
	}
	if cap(idx) < n {
		idx = make([]int, 0, n)
	}
	if cap(dist) < n {
		dist = make([]float32, 0, n)
	}
	idx, dist = idx[:0], dist[:0]
	// Simple selection: maintain the best n in an insertion-sorted pair of
	// parallel arrays. k is the number of IVF lists (hundreds to low
	// thousands); n is small.
	for c := 0; c < k; c++ {
		d := L2Squared(v, centroids[c*dim:(c+1)*dim])
		if len(idx) < n {
			idx = append(idx, c)
			dist = append(dist, d)
			for i := len(idx) - 1; i > 0 && dist[i] < dist[i-1]; i-- {
				idx[i], idx[i-1] = idx[i-1], idx[i]
				dist[i], dist[i-1] = dist[i-1], dist[i]
			}
			continue
		}
		if d >= dist[n-1] {
			continue
		}
		idx[n-1], dist[n-1] = c, d
		for i := n - 1; i > 0 && dist[i] < dist[i-1]; i-- {
			idx[i], idx[i-1] = idx[i-1], idx[i]
			dist[i], dist[i-1] = dist[i-1], dist[i]
		}
	}
	return idx, dist
}
