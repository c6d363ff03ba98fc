// Package pq implements product quantization for the asymmetric-distance
// (ADC) scan path of the shard index.
//
// # Why
//
// The exact IVF scan reads a full Dim×4-byte float row out of the feature
// matrix for every probed candidate, so per-shard scan throughput is bound
// by memory bandwidth, not arithmetic — and shard capacity is bound by
// feature-matrix bytes. Production visual-search systems (Visual Search at
// Alibaba; Web-Scale Responsive Visual Search at Bing) scan compact
// quantized codes instead and only touch raw features for a final exact
// re-rank.
//
// # The math
//
// A feature vector of dimensionality Dim is split into M contiguous
// subvectors of Dim/M components. Each subspace m gets its own codebook of
// 256 centroids (trained by k-means over the training set's m-th
// subvectors), so a vector quantizes to M bytes — its nearest centroid
// index in every subspace. A 512-dim float vector (2 KiB) becomes, at
// M=64, a 64-byte code: 32× less memory traffic on the scan path.
//
// At query time the query vector is NOT quantized (that is the "asymmetric"
// in ADC — it keeps the quantization error one-sided). Instead a lookup
// table lut[m][c] = ‖query_m − centroid_{m,c}‖² is built once per query
// (M×256 squared distances over Dim/M components ≈ one exact scan of 256
// candidates, amortised over every candidate scanned). The approximate
// squared distance to a stored code is then
//
//	dist(q, code) ≈ Σ_m lut[m][code[m]]
//
// — M table lookups and adds per candidate instead of Dim subtract/
// multiply/adds over Dim×4 bytes of floats.
//
// # The trade-off
//
// ADC distances carry the subspace quantization error, so the scan
// over-fetches (RerankK ≥ k candidates) and the caller re-ranks that short
// list exactly against the raw feature rows before returning the final
// top-k. Memory per image drops from Dim×4 bytes to M bytes on the scan
// path (the raw rows remain, touched only RerankK times per query), and
// recall@k of the re-ranked result stays within a few percent of the exact
// scan when RerankK is a small multiple of k (the index package guards
// this with a recall test).
//
// # 4-bit fast-scan mode
//
// With Bits=4 each subquantizer keeps only 16 centroids, so two
// subquantizers pack into one code byte (low nibble = even subquantizer,
// high nibble = odd). Code memory halves again (M/2 bytes per image) and
// the whole query LUT shrinks to M×16 floats — small enough to stay
// L1/register-resident while a scan streams code bytes. Codes are stored
// in the FAISS-style blocked "fast-scan" layout (see kernel.go):
// groups of BlockCodes codes interleaved by packed-byte lane, so the
// kernel's inner loop is a pure table gather with no per-candidate pointer
// chasing. The coarser 16-centroid quantizer carries more error than the
// 256-centroid one, which the caller absorbs with a deeper exact re-rank
// (the index package's per-bit-width RerankK defaults).
package pq

import (
	"errors"
	"fmt"
	"math"

	"jdvs/internal/kmeans"
	"jdvs/internal/parallel"
	"jdvs/internal/vecmath"
)

// NCentroids is the number of centroids per subquantizer in the default
// 8-bit mode. Fixed at 256 so one code component is exactly one byte.
const NCentroids = 256

// NCentroids4 is the number of centroids per subquantizer in 4-bit mode:
// 16, so one code component is a nibble and two subquantizers share a
// byte.
const NCentroids4 = 16

// Config parameterises training.
type Config struct {
	// Dim is the full feature dimensionality. Required.
	Dim int
	// M is the number of subquantizers. Required; must divide Dim. In
	// 8-bit mode a code is M bytes; in 4-bit mode M must be even and a
	// code is M/2 bytes.
	M int
	// Bits is the centroid index width per subquantizer: 8 (256 centroids,
	// the default when zero) or 4 (16 centroids, fast-scan mode).
	Bits int
	// MaxIters bounds each subquantizer's Lloyd iterations (default 15 —
	// subspace codebooks converge faster than the IVF codebook and there
	// are M of them to train).
	MaxIters int
	// Seed makes training deterministic. Subquantizer m trains with
	// Seed+m.
	Seed int64
}

// Validate checks the shape and defaults Bits to 8: M must divide Dim,
// and at 4 bits M must be even. Train runs it; a caller that takes the
// shape from its own config runs it first to fail before any work.
func (c *Config) Validate() error {
	if c.Dim <= 0 {
		return errors.New("pq: Dim must be positive")
	}
	if c.M <= 0 {
		return errors.New("pq: M must be positive")
	}
	if c.Dim%c.M != 0 {
		return fmt.Errorf("pq: M %d must divide Dim %d", c.M, c.Dim)
	}
	switch c.Bits {
	case 0:
		c.Bits = 8
	case 8:
	case 4:
		if c.M%2 != 0 {
			return fmt.Errorf("pq: 4-bit codes pack two subquantizers per byte; M %d must be even", c.M)
		}
	default:
		return fmt.Errorf("pq: Bits must be 4 or 8, got %d", c.Bits)
	}
	if c.MaxIters <= 0 {
		c.MaxIters = 15
	}
	return nil
}

// Codebook is a trained product quantizer: M subquantizers of KPerSub()
// centroids each over Dim/M-component subspaces.
type Codebook struct {
	Dim    int
	M      int
	SubDim int // Dim / M
	// Bits is the centroid index width per subquantizer: 8 or 4. Zero is
	// read as 8 so codebooks deserialized from pre-4-bit snapshots keep
	// working.
	Bits int
	// Centroids is flat: subquantizer m's centroid c occupies
	// Centroids[(m*KPerSub()+c)*SubDim : ...+SubDim].
	Centroids []float32
}

// KPerSub returns the number of centroids per subquantizer: 16 in 4-bit
// mode, 256 otherwise.
func (cb *Codebook) KPerSub() int {
	if cb.Bits == 4 {
		return NCentroids4
	}
	return NCentroids
}

// CodeBytes returns the packed code size in bytes: M in 8-bit mode, M/2
// in 4-bit mode.
func (cb *Codebook) CodeBytes() int {
	if cb.Bits == 4 {
		return cb.M / 2
	}
	return cb.M
}

// Valid performs structural sanity checks (used when a codebook arrives
// from a snapshot rather than Train).
func (cb *Codebook) Valid() error {
	if cb.Dim <= 0 || cb.M <= 0 || cb.SubDim <= 0 || cb.M*cb.SubDim != cb.Dim {
		return fmt.Errorf("pq: inconsistent codebook shape (Dim=%d M=%d SubDim=%d)", cb.Dim, cb.M, cb.SubDim)
	}
	switch cb.Bits {
	case 0, 8:
	case 4:
		if cb.M%2 != 0 {
			return fmt.Errorf("pq: 4-bit codebook with odd M %d", cb.M)
		}
	default:
		return fmt.Errorf("pq: codebook Bits must be 4 or 8, got %d", cb.Bits)
	}
	if len(cb.Centroids) != cb.M*cb.KPerSub()*cb.SubDim {
		return fmt.Errorf("pq: codebook has %d centroid floats, want %d", len(cb.Centroids), cb.M*cb.KPerSub()*cb.SubDim)
	}
	return nil
}

// subCentroids returns subquantizer m's flat KPerSub()×SubDim matrix.
func (cb *Codebook) subCentroids(m int) []float32 {
	k := cb.KPerSub()
	start := m * k * cb.SubDim
	return cb.Centroids[start : start+k*cb.SubDim]
}

// Train fits a product quantizer on the training vectors (flat row-major
// n×cfg.Dim). Fewer than KPerSub distinct subvectors is fine: the
// underlying k-means seeds surplus centroids from perturbed data rows.
func Train(cfg Config, data []float32) (*Codebook, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(data)%cfg.Dim != 0 {
		return nil, fmt.Errorf("pq: data length %d is not a multiple of dim %d", len(data), cfg.Dim)
	}
	n := len(data) / cfg.Dim
	if n == 0 {
		return nil, errors.New("pq: no training data")
	}
	subDim := cfg.Dim / cfg.M
	cb := &Codebook{
		Dim:    cfg.Dim,
		M:      cfg.M,
		SubDim: subDim,
		Bits:   cfg.Bits,
	}
	cb.Centroids = make([]float32, cfg.M*cb.KPerSub()*subDim)
	// Train each subspace independently over the m-th subvector column
	// block, gathered contiguously for the kmeans kernel. The subspaces
	// share nothing (subquantizer m seeds with Seed+m), so they train
	// across the cores, each worker gathering into its own buffer.
	errs := make([]error, cfg.M)
	parallel.For(cfg.M, func(lo, hi int) {
		sub := make([]float32, n*subDim)
		for m := lo; m < hi; m++ {
			off := m * subDim
			for i := 0; i < n; i++ {
				copy(sub[i*subDim:(i+1)*subDim], data[i*cfg.Dim+off:i*cfg.Dim+off+subDim])
			}
			kcb, err := kmeans.Train(kmeans.Config{
				K:        cb.KPerSub(),
				Dim:      subDim,
				MaxIters: cfg.MaxIters,
				Seed:     cfg.Seed + int64(m),
			}, sub)
			if err != nil {
				errs[m] = fmt.Errorf("pq: train subquantizer %d: %w", m, err)
				return
			}
			copy(cb.subCentroids(m), kcb.Centroids)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return cb, nil
}

// Encode quantizes v into code (len CodeBytes()). In 8-bit mode code[m] is
// the index of the nearest centroid of subquantizer m to v's m-th
// subvector; in 4-bit mode byte j packs subquantizer 2j's index in the low
// nibble and 2j+1's in the high nibble.
func (cb *Codebook) Encode(v []float32, code []byte) error {
	if len(v) != cb.Dim {
		return fmt.Errorf("pq: encode dim %d, codebook dim %d", len(v), cb.Dim)
	}
	if len(code) != cb.CodeBytes() {
		return fmt.Errorf("pq: code length %d, want %d", len(code), cb.CodeBytes())
	}
	if cb.Bits == 4 {
		for j := range code {
			lo, _ := vecmath.NearestCentroid(v[(2*j)*cb.SubDim:(2*j+1)*cb.SubDim], cb.subCentroids(2*j), cb.SubDim)
			hi, _ := vecmath.NearestCentroid(v[(2*j+1)*cb.SubDim:(2*j+2)*cb.SubDim], cb.subCentroids(2*j+1), cb.SubDim)
			code[j] = byte(lo) | byte(hi)<<4
		}
		return nil
	}
	for m := 0; m < cb.M; m++ {
		sub := v[m*cb.SubDim : (m+1)*cb.SubDim]
		best, _ := vecmath.NearestCentroid(sub, cb.subCentroids(m), cb.SubDim)
		code[m] = byte(best)
	}
	return nil
}

// Decode reconstructs the centroid approximation of code into out
// (len Dim) — the vector ADC distances are actually measured to. Only
// tests call it; it stays as their reconstruction oracle, bounding
// quantization error.
func (cb *Codebook) Decode(code []byte, out []float32) error {
	if len(code) != cb.CodeBytes() {
		return fmt.Errorf("pq: code length %d, want %d", len(code), cb.CodeBytes())
	}
	if len(out) != cb.Dim {
		return fmt.Errorf("pq: decode dim %d, codebook dim %d", len(out), cb.Dim)
	}
	for m := 0; m < cb.M; m++ {
		c := cb.centroidIndex(code, m)
		cents := cb.subCentroids(m)
		copy(out[m*cb.SubDim:(m+1)*cb.SubDim], cents[c*cb.SubDim:(c+1)*cb.SubDim])
	}
	return nil
}

// centroidIndex extracts subquantizer m's centroid index from a packed
// code.
func (cb *Codebook) centroidIndex(code []byte, m int) int {
	if cb.Bits == 4 {
		b := code[m/2]
		if m%2 == 1 {
			return int(b >> 4)
		}
		return int(b & 0x0f)
	}
	return int(code[m])
}

// LUTSize returns the float32 count of one query's distance table:
// M×256 in 8-bit mode, M×16 in 4-bit mode.
func (cb *Codebook) LUTSize() int { return cb.M * cb.KPerSub() }

// BuildLUT fills the per-query asymmetric distance table into lut, growing
// it if needed, and returns it: lut[m*KPerSub()+c] is the squared L2
// distance between q's m-th subvector and centroid c of subquantizer m.
// Passing a retained buffer makes repeated queries allocation-free.
func (cb *Codebook) BuildLUT(q []float32, lut []float32) ([]float32, error) {
	if len(q) != cb.Dim {
		return nil, fmt.Errorf("pq: query dim %d, codebook dim %d", len(q), cb.Dim)
	}
	need := cb.LUTSize()
	if cap(lut) < need {
		lut = make([]float32, need)
	}
	lut = lut[:need]
	k := cb.KPerSub()
	for m := 0; m < cb.M; m++ {
		sub := q[m*cb.SubDim : (m+1)*cb.SubDim]
		cents := cb.subCentroids(m)
		row := lut[m*k : (m+1)*k]
		for c := 0; c < k; c++ {
			row[c] = vecmath.L2Squared(sub, cents[c*cb.SubDim:(c+1)*cb.SubDim])
		}
	}
	return lut, nil
}

// ADCDist returns the asymmetric approximate squared distance of one code
// against a query's lookup table: Σ_m lut[m*NCentroids+code[m]]. No
// serving path scores one code alone; ADCDist stays because
// ADCScanBounded's contract is stated against it and internal/index's
// oracle test calls it.
func ADCDist(lut []float32, code []byte) float32 {
	return adcSum(lut, code, 0, 0, 0, 0)
}

// adcSum folds code's lookups into four running accumulators and returns
// their total; lut starts at the table row of code[0]'s subquantizer. The
// inner loop is unrolled by four like vecmath.L2Squared; four independent
// accumulators keep the adds off one dependency chain. ADCDist starts it
// from zero, ADCScanBounded after the first four lookups.
func adcSum(lut []float32, code []byte, s0, s1, s2, s3 float32) float32 {
	i := 0
	for ; i+4 <= len(code); i += 4 {
		// Reslicing to a constant length lets the compiler prove every
		// byte-derived index (< 4×NCentroids) in bounds: one slice check
		// per four lookups instead of four.
		l := lut[:4*NCentroids]
		s0 += l[code[i]]
		s1 += l[NCentroids+int(code[i+1])]
		s2 += l[2*NCentroids+int(code[i+2])]
		s3 += l[3*NCentroids+int(code[i+3])]
		lut = lut[4*NCentroids:]
	}
	for ; i < len(code); i++ {
		s0 += lut[:NCentroids][code[i]]
		lut = lut[NCentroids:]
	}
	return s0 + s1 + s2 + s3
}

// ADCScan scores a contiguous block of n codes (codes holds n×m bytes,
// code i at codes[i*m:(i+1)*m]) against lut, writing distances into out
// and returning it. out[i] is bit-identical to ADCDist(lut, code i). It is
// ADCScanBounded with an infinite bound: the one 8-bit scoring loop, with
// nothing abandoned. It is kept only because the benchmark's per-layer
// harness (bench/layers.go) calls it.
func ADCScan(lut []float32, codes []byte, m int, out []float32) []float32 {
	return ADCScanBounded(lut, codes, m, float32(math.Inf(1)), out)
}

// ADCScanBounded is the shard's 8-bit block scorer: an inverted list's
// codes are stored row-major in list order, so the scan scores each block
// (and the published prefix of the tail block) with one call, passing the
// selector's current worst distance as bound. Layout and output are
// ADCScan's, with one difference: a code whose first four lookups already
// sum above bound is abandoned and reads +Inf.
//
// Contract: every code whose ADCDist is at or below bound gets exactly
// ADCDist's value, and every other code reads a value above bound. The
// first group of four subquantizers is summed into ADCDist's four
// accumulators in ADCDist's order, and a code that passes the test is
// finished by adcSum, ADCDist's own loop, so its distance is ADCDist's bit
// for bit. Abandoning is exact only because LUT
// entries are squared distances (≥ 0): rounded addition of non-negative
// terms never decreases, so the tested partial sum never exceeds the full
// sum. A table that can hold negative entries (an inner-product LUT) must
// be scanned with an infinite bound. With m < 4 there is no first group
// and every code is scored in full.
func ADCScanBounded(lut []float32, codes []byte, m int, bound float32, out []float32) []float32 {
	if m <= 0 || len(codes)%m != 0 {
		panic("pq: bad code block layout")
	}
	n := len(codes) / m
	if cap(out) < n {
		out = make([]float32, n)
	}
	out = out[:n]
	inf := float32(math.Inf(1))
	for i := range out {
		code := codes[i*m : (i+1)*m]
		if len(code) < 4 {
			out[i] = adcSum(lut, code, 0, 0, 0, 0)
			continue
		}
		g := lut[:4*NCentroids]
		var s0, s1, s2, s3 float32
		s0 += g[code[0]]
		s1 += g[NCentroids+int(code[1])]
		s2 += g[2*NCentroids+int(code[2])]
		s3 += g[3*NCentroids+int(code[3])]
		if s0+s1+s2+s3 > bound {
			out[i] = inf
			continue
		}
		out[i] = adcSum(lut[4*NCentroids:], code[4:], s0, s1, s2, s3)
	}
	return out
}
