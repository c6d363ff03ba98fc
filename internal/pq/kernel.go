package pq

// This file defines the 4-bit fast-scan kernel and the blocked code layout
// it consumes. The kernel is portable Go, one implementation on every
// platform; the plain ten-line loop it was derived from lives in
// kernel_test.go as the bit-equivalence reference. The 8-bit kernel is
// ADCScanBounded (pq.go).
//
// # Bounded 8-bit scan
//
// ADCScanBounded takes the caller's current worst distance as a bound and
// abandons a code whose first four lookups already sum above it, writing
// +Inf. Distances are exact at or below the bound — bit-identical to
// ADCDist — and above it they only promise to stay above it. This holds
// because every LUT entry is a squared distance, never negative, so a
// partial sum cannot exceed the full one; a LUT with negative entries
// (inner product) must pass an infinite bound. ADCScan is the same loop
// with an infinite bound. The 4-bit kernels below take no bound.
//
// # Blocked fast-scan layout
//
// A block holds BlockCodes packed 4-bit codes of mb = M/2 bytes each,
// interleaved by byte lane: blk[j*BlockCodes+i] is packed byte j of code
// i. Scoring a block therefore streams mb runs of BlockCodes consecutive
// bytes, each run scored against one 32-float LUT pair that stays in
// registers/L1 — a pure table gather with no per-candidate pointer
// chasing, which is what makes 4-bit codes faster (not just smaller) than
// the 8-bit per-code ADCDist walk.
//
// # Kernel contract
//
// Every scorer of this layout must produce bit-identical float32
// distances: zero the accumulator, walk byte lanes in ascending order, and
// fold each lane's low+high LUT pair into the accumulator as one
// `acc += lo + hi`. The equivalence tests in kernel_test.go enforce this
// between ScanBlock4, the reference loop, ADCDistBlockSlot and the
// single-code oracle ADCDist4 (defined there too), and the index package
// relies on it so that full-block and scalar-tail paths return exactly
// equal search results.

// BlockCodes is the fast-scan block width: codes are stored and scored in
// groups of 32, matching the 32-way gather ScanBlock4 unrolls.
const BlockCodes = 32

// ScanBlock4 scores one full fast-scan block: blk holds mb*BlockCodes
// interleaved bytes, lut holds mb*32 floats, and out[i] receives code i's
// ADC distance. The gather is unrolled four codes at a time. Converting
// each lane to fixed-size array pointers lets the compiler prove every
// nibble-derived index (≤ 15, ≤ 31 after the +16 high-half offset) in
// bounds, so the inner loop is pure loads and adds with no slice checks;
// four independent code accumulations per step keep the LUT loads off one
// dependency chain.
func ScanBlock4(lut []float32, blk []byte, mb int, out *[BlockCodes]float32) {
	for i := range out {
		out[i] = 0
	}
	for j := 0; j < mb; j++ {
		pair := (*[32]float32)(lut[j*32:])
		lane := (*[BlockCodes]byte)(blk[j*BlockCodes:])
		for i := 0; i < BlockCodes; i += 4 {
			b0, b1, b2, b3 := lane[i], lane[i+1], lane[i+2], lane[i+3]
			out[i] += pair[b0&0x0f] + pair[16+(b0>>4)]
			out[i+1] += pair[b1&0x0f] + pair[16+(b1>>4)]
			out[i+2] += pair[b2&0x0f] + pair[16+(b2>>4)]
			out[i+3] += pair[b3&0x0f] + pair[16+(b3>>4)]
		}
	}
}

// ADCDistBlockSlot scores the single code at slot within a (possibly
// partially filled) fast-scan block — the scalar tail path for the last
// block of an inverted list. Bit-identical to ScanBlock4's out[slot] on a
// full block (see the kernel contract above).
func ADCDistBlockSlot(lut []float32, blk []byte, mb, slot int) float32 {
	var s float32
	for j := 0; j < mb; j++ {
		b := blk[j*BlockCodes+slot]
		pair := lut[j*32 : j*32+32]
		s += pair[b&0x0f] + pair[16+(b>>4)]
	}
	return s
}
