// Package forward implements the paper's forward index (Figs. 3 and 7).
//
// Each image is numbered sequentially within a partition; its product's
// attributes are stored in an array element addressed by that number.
// Numeric attributes (product ID, sales, praise, price, category) occupy
// fixed-length fields and are updated with single aligned atomic stores, so
// — exactly as §2.3 puts it — "this operation is atomic and there is no
// conflict between search and update processes for maximum concurrency".
// Variable-length attributes (the image URL) are appended to a side buffer
// and published by atomically storing one packed reference word (chunk,
// offset, length) in the record; readers therefore always observe either
// the old URL or the new URL, never a torn mix.
//
// Storage is an append-only sequence of fixed-size record chunks behind an
// atomically published chunk directory: readers never take a lock, appends
// are serialised (each index partition has a single real-time indexing
// writer, per Fig. 4).
package forward

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"jdvs/internal/core"
)

// ImageID is the sequential number of an image within one index partition.
type ImageID = uint32

const (
	// recordsPerChunk is the number of records per storage chunk.
	recordsPerChunk = 1 << 13 // 8192

	// urlChunkSize is the byte size of each var-length buffer chunk. URLs
	// never span chunks, so this is also the maximum URL length.
	urlChunkSize = 1 << 20 // 1 MiB

	// Packed URL reference layout: 16-bit chunk | 24-bit offset | 24-bit len.
	urlOffBits = 24
	urlLenBits = 24
	urlLenMask = 1<<urlLenBits - 1
	urlOffMask = 1<<urlOffBits - 1
)

// ErrURLTooLong is returned when a variable-length attribute exceeds the
// buffer chunk size.
var ErrURLTooLong = errors.New("forward: url exceeds maximum attribute length")

// MaxURLLen is the longest URL Append accepts (one var-length buffer
// chunk). Exported so callers composing multi-structure inserts can
// reject an oversized URL before committing anything elsewhere.
const MaxURLLen = urlChunkSize

// Attrs is the set of product attributes carried by one image record. It
// mirrors the paper's example attributes: "product ID, sales, prices and
// image URL" (§2.2), plus praise and category which §2.4 uses for ranking
// and query scoping. It aliases core.Attrs so every tier shares one
// representation.
type Attrs = core.Attrs

// record is one fixed-length forward index element. Every field is updated
// atomically and independently.
type record struct {
	productID atomic.Uint64
	sales     atomic.Uint32
	praise    atomic.Uint32
	price     atomic.Uint32
	category  atomic.Uint32
	urlRef    atomic.Uint64 // packed chunk/offset/len, 0 = no URL
}

type recordChunk struct {
	recs [recordsPerChunk]record
}

// urlChunk is one fixed-size segment of the var-length attribute buffer.
// buf is allocated at full size once and never reallocated; committed
// tracks how many bytes are published. Writers copy into the region past
// committed and then advance it with an atomic store, so lock-free readers
// never observe a mutating slice header or an unpublished byte.
type urlChunk struct {
	buf       []byte
	committed atomic.Int64
}

// Index is a single partition's forward index. The zero value is not
// usable; call New.
type Index struct {
	mu sync.Mutex // serialises appends and buffer writes

	dir    atomic.Pointer[[]*recordChunk]
	length atomic.Uint32 // committed record count

	urlDir    atomic.Pointer[[]*urlChunk]
	urlChunkN int // index of the chunk currently being filled (guarded by mu)
}

// New returns an empty forward index.
func New() *Index {
	ix := &Index{}
	dir := []*recordChunk{}
	ix.dir.Store(&dir)
	udir := []*urlChunk{{buf: make([]byte, urlChunkSize)}}
	ix.urlDir.Store(&udir)
	return ix
}

// Len returns the number of committed records.
func (ix *Index) Len() int { return int(ix.length.Load()) }

// Append adds a new image record and returns its sequential ImageID.
func (ix *Index) Append(a Attrs) (ImageID, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	id := ix.length.Load()
	rec, err := ix.ensureLocked(id)
	if err != nil {
		return 0, err
	}
	rec.productID.Store(a.ProductID)
	rec.sales.Store(a.Sales)
	rec.praise.Store(a.Praise)
	rec.price.Store(a.PriceCents)
	rec.category.Store(uint32(a.Category))
	if a.URL != "" {
		ref, err := ix.appendURLLocked(a.URL)
		if err != nil {
			return 0, err
		}
		rec.urlRef.Store(ref)
	} else {
		rec.urlRef.Store(0)
	}
	// Publish: the record becomes visible to readers only after all fields
	// are in place.
	ix.length.Store(id + 1)
	return id, nil
}

// ensureLocked grows the chunk directory to hold record id and returns the
// record slot. Caller holds mu.
func (ix *Index) ensureLocked(id ImageID) (*record, error) {
	chunks := *ix.dir.Load()
	ci := int(id / recordsPerChunk)
	if ci >= len(chunks) {
		next := make([]*recordChunk, ci+1)
		copy(next, chunks)
		for i := len(chunks); i <= ci; i++ {
			next[i] = new(recordChunk)
		}
		ix.dir.Store(&next)
		chunks = next
	}
	return &chunks[ci].recs[id%recordsPerChunk], nil
}

func (ix *Index) rec(id ImageID) *record {
	if id >= ix.length.Load() {
		return nil
	}
	chunks := *ix.dir.Load()
	return &chunks[id/recordsPerChunk].recs[id%recordsPerChunk]
}

// appendURLLocked writes s into the var-length buffer and returns the packed
// reference word. Caller holds mu. The bytes are copied into pre-allocated
// storage beyond the committed watermark and then published by advancing
// it atomically — concurrent readers never see a torn write.
func (ix *Index) appendURLLocked(s string) (uint64, error) {
	if len(s) > urlLenMask || len(s) > urlChunkSize {
		return 0, ErrURLTooLong
	}
	chunks := *ix.urlDir.Load()
	cur := chunks[ix.urlChunkN]
	off := int(cur.committed.Load())
	if off+len(s) > urlChunkSize {
		nc := &urlChunk{buf: make([]byte, urlChunkSize)}
		next := make([]*urlChunk, len(chunks)+1)
		copy(next, chunks)
		next[len(chunks)] = nc
		ix.urlDir.Store(&next)
		ix.urlChunkN = len(chunks)
		cur = nc
		off = 0
	}
	copy(cur.buf[off:off+len(s)], s)
	cur.committed.Store(int64(off + len(s))) // publish
	ref := uint64(ix.urlChunkN)<<(urlOffBits+urlLenBits) |
		uint64(off)<<urlLenBits |
		uint64(len(s))
	// ref==0 means "no URL" to callers; a zero-length string at offset 0 of
	// chunk 0 would collide, but empty URLs never reach the buffer (the
	// zero ref is stored directly for them).
	return ref, nil
}

func (ix *Index) url(ref uint64) string {
	if ref == 0 {
		return ""
	}
	ci := int(ref >> (urlOffBits + urlLenBits))
	off := int(ref>>urlLenBits) & urlOffMask
	n := int(ref) & urlLenMask
	chunks := *ix.urlDir.Load()
	if ci >= len(chunks) {
		return ""
	}
	c := chunks[ci]
	if int64(off+n) > c.committed.Load() {
		return "" // unreachable for refs published by appendURLLocked
	}
	return string(c.buf[off : off+n])
}

// Get returns the attributes of image id. ok is false if id has not been
// committed.
func (ix *Index) Get(id ImageID) (Attrs, bool) {
	r := ix.rec(id)
	if r == nil {
		return Attrs{}, false
	}
	return Attrs{
		ProductID:  r.productID.Load(),
		Sales:      r.sales.Load(),
		Praise:     r.praise.Load(),
		PriceCents: r.price.Load(),
		Category:   uint16(r.category.Load()),
		URL:        ix.url(r.urlRef.Load()),
	}, true
}

// ProductID returns just the product ID of image id (hot path for result
// assembly; avoids materialising the URL).
func (ix *Index) ProductID(id ImageID) (uint64, bool) {
	r := ix.rec(id)
	if r == nil {
		return 0, false
	}
	return r.productID.Load(), true
}

// Numeric returns the ranking attributes without touching the URL buffer.
func (ix *Index) Numeric(id ImageID) (sales, praise, price uint32, category uint16, ok bool) {
	r := ix.rec(id)
	if r == nil {
		return 0, 0, 0, 0, false
	}
	return r.sales.Load(), r.praise.Load(), r.price.Load(), uint16(r.category.Load()), true
}

// SetSales atomically updates the sales field of image id.
func (ix *Index) SetSales(id ImageID, v uint32) bool {
	r := ix.rec(id)
	if r == nil {
		return false
	}
	r.sales.Store(v)
	return true
}

// SetPraise atomically updates the praise field of image id.
func (ix *Index) SetPraise(id ImageID, v uint32) bool {
	r := ix.rec(id)
	if r == nil {
		return false
	}
	r.praise.Store(v)
	return true
}

// SetPrice atomically updates the price field of image id.
func (ix *Index) SetPrice(id ImageID, v uint32) bool {
	r := ix.rec(id)
	if r == nil {
		return false
	}
	r.price.Store(v)
	return true
}

// SetProductID atomically updates the product ID of image id — used when a
// re-listed image comes back attached to a different product.
func (ix *Index) SetProductID(id ImageID, v uint64) bool {
	r := ix.rec(id)
	if r == nil {
		return false
	}
	r.productID.Store(v)
	return true
}

// SetCategory atomically updates the category field of image id. Added so
// re-listings and attribute updates can refresh the category a
// category-scoped search filters on, not just the ranking fields.
func (ix *Index) SetCategory(id ImageID, v uint16) bool {
	r := ix.rec(id)
	if r == nil {
		return false
	}
	r.category.Store(uint32(v))
	return true
}

// SetURL updates the variable-length URL attribute of image id: the new
// value is appended to the buffer and the packed reference word is stored
// atomically (§2.3: "the value is added at the end of the buffer and the
// offset value is updated in the forward index").
func (ix *Index) SetURL(id ImageID, s string) error {
	r := ix.rec(id)
	if r == nil {
		return fmt.Errorf("forward: image %d out of range", id)
	}
	ix.mu.Lock()
	ref, err := ix.appendURLLocked(s)
	ix.mu.Unlock()
	if err != nil {
		return err
	}
	r.urlRef.Store(ref)
	return nil
}

// WriteTo serialises the index (record fields and URL strings) in a compact
// binary format. It must not run concurrently with appends.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	n := ix.length.Load()
	var written int64
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], n)
	k, err := w.Write(hdr[:])
	written += int64(k)
	if err != nil {
		return written, err
	}
	var buf [26]byte
	for id := uint32(0); id < n; id++ {
		a, _ := ix.Get(id)
		binary.LittleEndian.PutUint64(buf[0:8], a.ProductID)
		binary.LittleEndian.PutUint32(buf[8:12], a.Sales)
		binary.LittleEndian.PutUint32(buf[12:16], a.Praise)
		binary.LittleEndian.PutUint32(buf[16:20], a.PriceCents)
		binary.LittleEndian.PutUint16(buf[20:22], a.Category)
		binary.LittleEndian.PutUint32(buf[22:26], uint32(len(a.URL)))
		k, err = w.Write(buf[:])
		written += int64(k)
		if err != nil {
			return written, err
		}
		k, err = io.WriteString(w, a.URL)
		written += int64(k)
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// ReadFrom replaces the index contents from a WriteTo stream. It must not
// run concurrently with readers or writers.
func (ix *Index) ReadFrom(r io.Reader) (int64, error) {
	var read int64
	var hdr [4]byte
	k, err := io.ReadFull(r, hdr[:])
	read += int64(k)
	if err != nil {
		return read, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	fresh := New()
	var buf [26]byte
	urlBuf := make([]byte, 0, 256)
	for id := uint32(0); id < n; id++ {
		k, err = io.ReadFull(r, buf[:])
		read += int64(k)
		if err != nil {
			return read, err
		}
		urlLen := binary.LittleEndian.Uint32(buf[22:26])
		if urlLen > MaxURLLen {
			return read, fmt.Errorf("forward: corrupt snapshot: url length %d", urlLen)
		}
		if cap(urlBuf) < int(urlLen) {
			urlBuf = make([]byte, urlLen)
		}
		urlBuf = urlBuf[:urlLen]
		k, err = io.ReadFull(r, urlBuf)
		read += int64(k)
		if err != nil {
			return read, err
		}
		a := Attrs{
			ProductID:  binary.LittleEndian.Uint64(buf[0:8]),
			Sales:      binary.LittleEndian.Uint32(buf[8:12]),
			Praise:     binary.LittleEndian.Uint32(buf[12:16]),
			PriceCents: binary.LittleEndian.Uint32(buf[16:20]),
			Category:   binary.LittleEndian.Uint16(buf[20:22]),
			URL:        string(urlBuf),
		}
		if _, err := fresh.Append(a); err != nil {
			return read, err
		}
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	// Bound before backing, the same order every reader uses; fresh is
	// quiescent here, so this is for uniformity, not correctness.
	length := fresh.length.Load()
	ix.dir.Store(fresh.dir.Load())
	ix.urlDir.Store(fresh.urlDir.Load())
	ix.urlChunkN = fresh.urlChunkN
	ix.length.Store(length)
	return read, nil
}
