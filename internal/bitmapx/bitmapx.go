// Package bitmapx implements the concurrent validity bitmap at the heart of
// the paper's deletion and re-listing scheme (§2.2–2.3).
//
// Removing a product from the market never touches the forward or inverted
// indexes — the image's bit simply flips from 1 (valid) to 0 (invalid), and
// both the search scan and the full-indexing pass filter on the bit. When
// the product returns to market the bit flips back and all previously
// extracted features are reused.
//
// The bitmap must therefore support single-bit atomic updates concurrent
// with lock-free reads from search threads, and it must grow as new images
// are appended. Bits live in fixed-size chunks of atomic 64-bit words; the
// chunk directory is published through an atomic pointer, so readers never
// take a lock. Growth is serialised by a mutex but leaves existing chunks
// untouched, so in-flight readers remain correct.
package bitmapx

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

const (
	// chunkBits is the number of bits per chunk. 1<<16 bits = 8 KiB words.
	chunkBits = 1 << 16
	wordsPer  = chunkBits / 64
)

// ChunkWords is the number of 64-bit words in one chunk. Snapshot always
// returns a whole number of chunks.
const ChunkWords = wordsPer

type chunk struct {
	words [wordsPer]atomic.Uint64
}

// Bitmap is a growable concurrent bitmap. The zero value is an empty bitmap
// ready for use. Bits are addressed by uint32 image IDs; unset bits read as
// 0 (invalid).
type Bitmap struct {
	dir atomic.Pointer[[]*chunk]

	mu sync.Mutex // guards growth only

	// setCount tracks the number of 1 bits for O(1) Count. Updated with the
	// outcome of each atomic bit transition, so it is exact.
	setCount atomic.Int64
}

// New returns a bitmap pre-sized for n bits. n may be 0.
func New(n int) *Bitmap {
	b := &Bitmap{}
	if n > 0 {
		b.Grow(uint32(n - 1))
	}
	return b
}

func (b *Bitmap) chunks() []*chunk {
	p := b.dir.Load()
	if p == nil {
		return nil
	}
	return *p
}

// Grow ensures the bitmap can address bit index id.
func (b *Bitmap) Grow(id uint32) {
	need := int(id/chunkBits) + 1
	if len(b.chunks()) >= need {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	cur := b.chunks()
	if len(cur) >= need {
		return
	}
	next := make([]*chunk, need)
	copy(next, cur)
	for i := len(cur); i < need; i++ {
		next[i] = new(chunk)
	}
	b.dir.Store(&next)
}

// Set marks bit id as valid (1). The bitmap grows as needed. It reports
// whether the bit changed (false if it was already set).
func (b *Bitmap) Set(id uint32) bool {
	b.Grow(id)
	c := b.chunks()[id/chunkBits]
	w := &c.words[(id%chunkBits)/64]
	mask := uint64(1) << (id % 64)
	for {
		old := w.Load()
		if old&mask != 0 {
			return false
		}
		if w.CompareAndSwap(old, old|mask) {
			b.setCount.Add(1)
			return true
		}
	}
}

// Clear marks bit id as invalid (0). Clearing a bit beyond the current size
// is a no-op (it already reads as 0). It reports whether the bit changed.
func (b *Bitmap) Clear(id uint32) bool {
	chunks := b.chunks()
	ci := int(id / chunkBits)
	if ci >= len(chunks) {
		return false
	}
	w := &chunks[ci].words[(id%chunkBits)/64]
	mask := uint64(1) << (id % 64)
	for {
		old := w.Load()
		if old&mask == 0 {
			return false
		}
		if w.CompareAndSwap(old, old&^mask) {
			b.setCount.Add(-1)
			return true
		}
	}
}

// Get reports whether bit id is set. Reads are lock-free and safe
// concurrently with Set/Clear/Grow.
func (b *Bitmap) Get(id uint32) bool {
	chunks := b.chunks()
	ci := int(id / chunkBits)
	if ci >= len(chunks) {
		return false
	}
	w := chunks[ci].words[(id%chunkBits)/64].Load()
	return w&(uint64(1)<<(id%64)) != 0
}

// Count returns the number of set bits.
func (b *Bitmap) Count() int { return int(b.setCount.Load()) }

// Cap returns the number of addressable bits.
func (b *Bitmap) Cap() int { return len(b.chunks()) * chunkBits }

// Snapshot copies the bitmap's words into a plain []uint64 for
// serialisation. The snapshot is consistent per word (each word is read
// atomically) but not across words, matching the paper's semantics: the
// bitmap is advisory validity state, not a transactional log.
func (b *Bitmap) Snapshot() []uint64 {
	chunks := b.chunks()
	out := make([]uint64, len(chunks)*wordsPer)
	for ci, c := range chunks {
		for wi := range c.words {
			out[ci*wordsPer+wi] = c.words[wi].Load()
		}
	}
	return out
}

// Restore replaces the bitmap contents with the given words (as produced by
// Snapshot). It must not be called concurrently with writers.
func (b *Bitmap) Restore(words []uint64) {
	nChunks := (len(words) + wordsPer - 1) / wordsPer
	next := make([]*chunk, nChunks)
	var count int64
	for ci := 0; ci < nChunks; ci++ {
		next[ci] = new(chunk)
		for wi := 0; wi < wordsPer; wi++ {
			idx := ci*wordsPer + wi
			if idx >= len(words) {
				break
			}
			next[ci].words[wi].Store(words[idx])
			count += int64(popcount(words[idx]))
		}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.dir.Store(&next)
	b.setCount.Store(count)
}

func popcount(x uint64) int { return bits.OnesCount64(x) }

// AppendWords appends the bitmap's current words to dst and returns the
// extended slice — Snapshot into a caller-reused buffer, for the per-query
// admission path where a fresh allocation per query would defeat the
// scratch pooling. Reads are lock-free; the same per-word (not cross-word)
// consistency as Snapshot applies. Typical use: w = b.AppendWords(w[:0]).
func (b *Bitmap) AppendWords(dst Words) Words {
	chunks := b.chunks()
	need := len(dst) + len(chunks)*wordsPer
	if cap(dst) < need {
		grown := make(Words, len(dst), need)
		copy(grown, dst)
		dst = grown
	}
	for _, c := range chunks {
		for wi := range c.words {
			dst = append(dst, c.words[wi].Load())
		}
	}
	return dst
}

// Words is a flat, single-owner bitmap: the materialised form the search
// path intersects per query (validity ∧ category ∧ attribute predicates)
// before walking inverted lists. Unlike Bitmap it is not safe for
// concurrent mutation — it is scratch, built and consumed by one query.
// Bits beyond len(w)*64 read as 0.
type Words []uint64

// Get reports whether bit id is set.
func (w Words) Get(id uint32) bool {
	wi := int(id / 64)
	if wi >= len(w) {
		return false
	}
	return w[wi]&(uint64(1)<<(id%64)) != 0
}

// Count returns the number of set bits.
func (w Words) Count() int {
	n := 0
	for _, x := range w {
		n += bits.OnesCount64(x)
	}
	return n
}

// Range calls fn for each set bit in ascending order, skipping zero words
// without inspecting individual bits, until fn returns false. On sparse
// bitmaps (a selective filter over a large shard) this touches one word
// per 64 candidates instead of one branch per candidate.
func (w Words) Range(fn func(id uint32) bool) {
	for wi, x := range w {
		for x != 0 {
			bit := uint32(bits.TrailingZeros64(x))
			if !fn(uint32(wi)*64 + bit) {
				return
			}
			x &= x - 1
		}
	}
}

// And stores a ∧ b into dst (reusing its capacity) and returns it. The
// result covers min(len(a), len(b)) words — bits beyond either operand are
// absent (0) in the intersection, matching the admission semantics where a
// bitmap that was never grown to an id simply does not admit it. dst may
// alias a or b.
func And(dst, a, b Words) Words {
	n := min(len(a), len(b))
	if cap(dst) < n {
		dst = make(Words, n)
	}
	dst = dst[:n]
	for i := 0; i < n; i++ {
		dst[i] = a[i] & b[i]
	}
	return dst
}

// AndCount returns the number of set bits in a ∧ b without materialising
// the intersection.
func AndCount(a, b Words) int {
	n := min(len(a), len(b))
	c := 0
	for i := 0; i < n; i++ {
		c += bits.OnesCount64(a[i] & b[i])
	}
	return c
}
