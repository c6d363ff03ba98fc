package pq

import (
	"math"
	"math/rand"
	"testing"
)

// packBlock interleaves n ≤ BlockCodes packed codes (mb bytes each) into
// one fast-scan block, the layout the shard's per-list code storage uses:
// blk[j*BlockCodes+i] = byte j of code i.
func packBlock(codes [][]byte, mb int) []byte {
	blk := make([]byte, mb*BlockCodes)
	for i, code := range codes {
		for j := 0; j < mb; j++ {
			blk[j*BlockCodes+i] = code[j]
		}
	}
	return blk
}

func randLUT(rng *rand.Rand, mb int) []float32 {
	lut := make([]float32, mb*32)
	for i := range lut {
		lut[i] = float32(rng.NormFloat64() * 3)
	}
	return lut
}

func randCodes(rng *rand.Rand, n, mb int) [][]byte {
	codes := make([][]byte, n)
	for i := range codes {
		codes[i] = make([]byte, mb)
		rng.Read(codes[i])
	}
	return codes
}

// scanBlock4Generic is the plain loop ScanBlock4 unrolls, kept as the
// bit-equivalence reference: the kernel contract (kernel.go) spelled out
// in ten lines.
func scanBlock4Generic(lut []float32, blk []byte, mb int, out *[BlockCodes]float32) {
	for i := range out {
		out[i] = 0
	}
	for j := 0; j < mb; j++ {
		pair := lut[j*32 : j*32+32]
		lane := blk[j*BlockCodes : j*BlockCodes+BlockCodes]
		for i, b := range lane {
			out[i] += pair[b&0x0f] + pair[16+(b>>4)]
		}
	}
}

// ADCDist4 is the single-code test oracle for the 4-bit kernels: the
// asymmetric approximate squared distance of one packed 4-bit code (len
// M/2) against a query's M×16 lookup table. Packed byte j covers
// subquantizers 2j (low nibble) and 2j+1 (high nibble), whose LUT rows
// are the contiguous 32 floats lut[j*32 : j*32+32].
//
// The summation shape (ascending byte lane, the lane's low+high pair
// summed before folding into the accumulator) is the kernel contract
// shared with ScanBlock4 and ADCDistBlockSlot: all three produce
// bit-identical distances for the same code, so full-block, tail and
// single-code paths can mix freely within one query.
func ADCDist4(lut []float32, code []byte) float32 {
	var s float32
	for j, b := range code {
		pair := lut[j*32 : j*32+32]
		s += pair[b&0x0f] + pair[16+(b>>4)]
	}
	return s
}

// TestScanBlock4MatchesGeneric is the kernel equivalence gate: the
// unrolled ScanBlock4 must return bit-identical distances to the
// reference loop, across every packed width the index can produce and
// including adversarial nibble values (0x00, 0x0f, 0xf0, 0xff at every
// lane position).
func TestScanBlock4MatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, mb := range []int{1, 2, 3, 4, 5, 7, 8, 12, 16, 32} {
		for trial := 0; trial < 20; trial++ {
			lut := randLUT(rng, mb)
			blk := make([]byte, mb*BlockCodes)
			rng.Read(blk)
			if trial < 4 {
				// Saturate some lanes with the extreme nibble patterns.
				edge := []byte{0x00, 0x0f, 0xf0, 0xff}[trial]
				for j := 0; j < mb; j += 2 {
					for i := 0; i < BlockCodes; i++ {
						blk[j*BlockCodes+i] = edge
					}
				}
			}
			var got, want [BlockCodes]float32
			ScanBlock4(lut, blk, mb, &got)
			scanBlock4Generic(lut, blk, mb, &want)
			for i := range got {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("mb=%d trial=%d slot=%d: kernel %v, reference %v (bit patterns differ)",
						mb, trial, i, got[i], want[i])
				}
			}
		}
	}
}

// TestScanBlock4MatchesScalarPaths: the full-block kernel, the
// partial-block slot path and the per-code ADCDist4 must agree
// bit-for-bit — the index mixes all three within one query (full blocks
// via the kernel, the tail block via ADCDistBlockSlot) and serial vs
// striped execution must return exactly equal results.
func TestScanBlock4MatchesScalarPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, mb := range []int{1, 2, 4, 8, 16} {
		lut := randLUT(rng, mb)
		codes := randCodes(rng, BlockCodes, mb)
		blk := packBlock(codes, mb)
		var out [BlockCodes]float32
		ScanBlock4(lut, blk, mb, &out)
		for i, code := range codes {
			slot := ADCDistBlockSlot(lut, blk, mb, i)
			per := ADCDist4(lut, code)
			if math.Float32bits(out[i]) != math.Float32bits(slot) {
				t.Fatalf("mb=%d slot=%d: kernel %v, ADCDistBlockSlot %v", mb, i, out[i], slot)
			}
			if math.Float32bits(out[i]) != math.Float32bits(per) {
				t.Fatalf("mb=%d slot=%d: kernel %v, ADCDist4 %v", mb, i, out[i], per)
			}
		}
	}
}

// TestScanBlock4NibbleOrder pins the packing convention: byte j's low
// nibble is subquantizer 2j, high nibble 2j+1, and LUT rows 2j/2j+1 are
// the contiguous 32 floats at lut[j*32:].
func TestScanBlock4NibbleOrder(t *testing.T) {
	const mb = 2 // M = 4 subquantizers
	lut := make([]float32, mb*32)
	for m := 0; m < 2*mb; m++ {
		for c := 0; c < 16; c++ {
			lut[m*16+c] = float32(1000*m + c)
		}
	}
	code := []byte{0x21, 0x43} // subs: 1, 2, 3, 4
	want := float32(0*1000+1) + float32(1*1000+2) + float32(2*1000+3) + float32(3*1000+4)
	if got := ADCDist4(lut, code); got != want {
		t.Fatalf("ADCDist4 nibble order: got %v, want %v", got, want)
	}
	blk := packBlock([][]byte{code}, mb)
	var out [BlockCodes]float32
	ScanBlock4(lut, blk, mb, &out)
	if out[0] != want {
		t.Fatalf("ScanBlock4 nibble order: got %v, want %v", out[0], want)
	}
}
