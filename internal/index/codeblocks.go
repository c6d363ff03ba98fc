package index

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync/atomic"

	"jdvs/internal/pq"
)

// codeBlocks is one inverted list's PQ codes, stored in blocks of
// pq.BlockCodes so a scan streams contiguous code bytes instead of chasing
// one code per candidate id. The storage is keyed by *list position*: slot
// i holds the code of the i-th id the owning inverted list yields, which
// is what lets the scan pair a block of distances with a block of ids
// without any id→code indirection. The single real-time writer appends a
// code here *before* the matching inverted-list append publishes the id
// (appendRow), so every scannable id has a committed code at its slot.
//
// A block's layout follows the code width, and this type is the only place
// that knows it:
//
//   - 8-bit codes are row-major: slot i occupies blk[i*mb : (i+1)*mb], so
//     pq.ADCScan scores a full block — or the published prefix of the tail
//     block — in one call;
//   - 4-bit codes are lane-interleaved (the fast-scan layout of
//     pq/kernel.go): blk[j*BlockCodes+i] is packed byte j of slot i, full
//     blocks go through pq.ScanBlock4 and the tail block through the
//     per-slot pq.ADCDistBlockSlot.
//
// Lock-free reader contract, same shape as featMat: bytes are written
// into chunk storage first, then the length counter publishes the slot.
// Readers load the length before the chunk directory and only touch bytes
// of published slots — in the tail block that is the row prefix (8-bit) or
// the lane bytes of slots below the loaded length (4-bit), byte-disjoint
// from the slot the writer is filling. Chunks are append-only and never
// moved, so a reader's directory snapshot stays valid for the whole scan.
type codeBlocks struct {
	mb          int  // bytes per code (M at 8 bits, M/2 at 4)
	interleaved bool // 4-bit lane-interleaved blocks; row-major otherwise
	dir         atomic.Pointer[[][]byte]
	length      atomic.Uint32
}

// blocksPerChunk sizes codeBlocks chunks: 8 blocks = 256 codes, 256×mb
// bytes per chunk (4 KiB at 8-bit M=16, 2 KiB at 4-bit). Chunks are per
// inverted list, so they are kept small enough that the rounding slack
// across many short lists stays well below the code bytes themselves —
// otherwise chunk padding would eat what compact codes save. Sizing by
// code count rather than bytes keeps 4-bit storage at exactly half the
// 8-bit storage of the same lists.
const blocksPerChunk = 8

// newCodeBlocks returns empty storage laid out for cb's code width.
func newCodeBlocks(cb *pq.Codebook) *codeBlocks {
	c := &codeBlocks{mb: cb.CodeBytes(), interleaved: cb.Bits == 4}
	dir := [][]byte{}
	c.dir.Store(&dir)
	return c
}

// published returns the number of committed codes.
func (cb *codeBlocks) published() uint32 { return cb.length.Load() }

// block returns the mb×BlockCodes bytes of block b. The caller must only
// read bytes of slots it observed as published.
func (cb *codeBlocks) block(b int) []byte {
	chunks := *cb.dir.Load()
	base := (b % blocksPerChunk) * cb.mb * pq.BlockCodes
	return chunks[b/blocksPerChunk][base : base+cb.mb*pq.BlockCodes]
}

// score writes the ADC distances of blk's first n slots — all of which the
// caller observed as published — into out[:n]. Distances are exact at or
// below bound: each is bit-identical to scoring that code alone
// (pq.ADCDist, or the 4-bit test oracle ADCDist4 in pq's kernel_test.go),
// so block boundaries never change a search result. A distance above
// bound may instead read as any value above it:
// 8-bit codes go through pq.ADCScanBounded, which abandons a code after
// its first four lookups once they exceed bound and writes +Inf. The
// 4-bit kernels ignore the bound and score every code in full.
func (cb *codeBlocks) score(lut []float32, blk []byte, n int, bound float32, out *[pq.BlockCodes]float32) {
	switch {
	case !cb.interleaved:
		pq.ADCScanBounded(lut, blk[:n*cb.mb], cb.mb, bound, out[:0])
	case n == pq.BlockCodes:
		pq.ScanBlock4(lut, blk, cb.mb, out)
	default:
		for slot := 0; slot < n; slot++ {
			out[slot] = pq.ADCDistBlockSlot(lut, blk, cb.mb, slot)
		}
	}
}

// append commits one code (mb bytes) at the next slot. Single writer only.
// The slot's bytes are written before the length store publishes them, and
// a fresh chunk's directory publishes before the length does, so a reader
// that observes the new length also observes the chunk and the bytes.
func (cb *codeBlocks) append(code []byte) {
	i := cb.length.Load()
	b := int(i) / pq.BlockCodes
	chunks := *cb.dir.Load()
	if ci := b / blocksPerChunk; ci >= len(chunks) {
		next := make([][]byte, ci+1)
		copy(next, chunks)
		for j := len(chunks); j <= ci; j++ {
			next[j] = make([]byte, blocksPerChunk*pq.BlockCodes*cb.mb)
		}
		cb.dir.Store(&next)
	}
	blk := cb.block(b)
	slot := int(i) % pq.BlockCodes
	if cb.interleaved {
		for j := 0; j < cb.mb; j++ {
			blk[j*pq.BlockCodes+slot] = code[j]
		}
	} else {
		copy(blk[slot*cb.mb:(slot+1)*cb.mb], code)
	}
	cb.length.Store(i + 1) // publish
}

// extract copies the code at slot (which must be published) into out (mb
// bytes) — the inverse of append, used by the snapshot writer.
func (cb *codeBlocks) extract(slot uint32, out []byte) {
	blk := cb.block(int(slot) / pq.BlockCodes)
	s := int(slot) % pq.BlockCodes
	if !cb.interleaved {
		copy(out, blk[s*cb.mb:(s+1)*cb.mb])
		return
	}
	for j := 0; j < cb.mb; j++ {
		out[j] = blk[j*pq.BlockCodes+s]
	}
}

// heapBytes reports chunk storage held (chunk-rounded).
func (cb *codeBlocks) heapBytes() int64 {
	n := int64(0)
	for _, c := range *cb.dir.Load() {
		n += int64(len(c))
	}
	return n
}

// writeCodeBlockLists serialises every list's codes in the portable
// per-code layout: [4B nlists] then per list [4B count][count×mb bytes].
// The block layout is rebuilt on load, so the wire format stays
// independent of pq.BlockCodes and of the in-memory interleaving.
func writeCodeBlockLists(w io.Writer, lists []*codeBlocks) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(lists)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	var buf []byte
	for _, cb := range lists {
		n := cb.published()
		buf = binary.LittleEndian.AppendUint32(buf[:0], n)
		for i := uint32(0); i < n; i++ {
			at := len(buf)
			buf = append(buf, make([]byte, cb.mb)...)
			cb.extract(i, buf[at:])
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// readCodeBlockLists deserialises writeCodeBlockLists output into fresh
// per-list block storage laid out for pcb.
func readCodeBlockLists(r io.Reader, nlists int, pcb *pq.Codebook) ([]*codeBlocks, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	if got := int(binary.LittleEndian.Uint32(hdr[:])); got != nlists {
		return nil, fmt.Errorf("index: snapshot pq code lists %d, codebook K %d", got, nlists)
	}
	lists := make([]*codeBlocks, nlists)
	code := make([]byte, pcb.CodeBytes())
	for l := range lists {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return nil, err
		}
		n := binary.LittleEndian.Uint32(hdr[:])
		cb := newCodeBlocks(pcb)
		for i := uint32(0); i < n; i++ {
			if _, err := io.ReadFull(r, code); err != nil {
				return nil, err
			}
			cb.append(code)
		}
		lists[l] = cb
	}
	return lists, nil
}
