package index

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
)

// featMat is the shard's raw feature-row store: row i holds the feature
// vector of image ID i, aligned with the forward index. Rows are read by the
// exact re-rank, the exact scan and plan, and PQ training; the scan path
// itself reads PQ codes. (PQ codes are not ID-keyed:
// they live per inverted list in codeBlocks, which follows the same
// publish protocol.) Rows live in fixed-size chunks behind an atomically
// published directory, so the search path reads rows lock-free while the
// (single) real-time indexing writer appends — a row is visible only once
// the length counter publishes it, and committed rows are immutable.
//
// Chunks are small so that a shard's partly filled last chunk — the only
// storage it holds beyond its rows — stays at 64 KiB at dim 64 rather than
// pinning a fixed megabyte per shard. The directory grows geometrically:
// a new chunk is appended into the directory's spare capacity (a slot past
// every published header's length, so no reader can see it) and the longer
// header is then published, so appending N rows copies O(N/featRowsPerChunk)
// directory entries in total rather than re-copying the whole directory
// per chunk.
type featMat struct {
	dim int // floats per row

	mu     sync.Mutex
	dir    atomic.Pointer[[][]float32] // chunks of featRowsPerChunk × dim, never moved or resized
	length atomic.Uint32
}

const featRowsPerChunk = 1 << 8 // 256 rows per chunk: 64 KiB at dim 64

func newFeatMat(dim int) *featMat {
	m := &featMat{dim: dim}
	m.dir.Store(&[][]float32{})
	return m
}

// Len returns the number of committed rows.
func (m *featMat) Len() int { return int(m.length.Load()) }

// Append stores row as the next row and returns its row index. row must
// have exactly dim elements.
func (m *featMat) Append(row []float32) (uint32, error) {
	if len(row) != m.dim {
		return 0, fmt.Errorf("index: feature dim %d, shard feature dim %d", len(row), m.dim)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	id := m.length.Load()
	chunks := *m.dir.Load()
	ci := int(id) / featRowsPerChunk
	if ci >= len(chunks) {
		// Rows are appended in id order, so ci == len(chunks) here.
		next := append(chunks, make([]float32, featRowsPerChunk*m.dim))
		m.dir.Store(&next)
		chunks = next
	}
	off := (int(id) % featRowsPerChunk) * m.dim
	copy(chunks[ci][off:off+m.dim], row)
	m.length.Store(id + 1) // publish
	return id, nil
}

// Row returns row id as a sub-slice of chunk storage. Rows are immutable
// once committed; callers must not modify the result. Returns nil for
// uncommitted ids.
func (m *featMat) Row(id uint32) []float32 {
	if id >= m.length.Load() {
		return nil
	}
	chunks := *m.dir.Load()
	off := (int(id) % featRowsPerChunk) * m.dim
	return chunks[int(id)/featRowsPerChunk][off : off+m.dim]
}

// writeTo serialises the matrix — the snapshot feature section:
// [4B dim][4B rows][rows×dim little-endian float32].
func (m *featMat) writeTo(w io.Writer) (int64, error) {
	n := m.length.Load()
	var written int64
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(m.dim))
	binary.LittleEndian.PutUint32(hdr[4:8], n)
	k, err := w.Write(hdr[:])
	written += int64(k)
	if err != nil {
		return written, err
	}
	buf := make([]byte, 4*m.dim)
	for id := uint32(0); id < n; id++ {
		for i, v := range m.Row(id) {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
		}
		k, err = w.Write(buf)
		written += int64(k)
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// heapBytes reports the chunk storage held on the Go heap: every
// allocated chunk pins featRowsPerChunk×dim×4 bytes whether or not it is
// full.
func (m *featMat) heapBytes() int64 {
	chunks := len(*m.dir.Load())
	return int64(chunks) * featRowsPerChunk * int64(m.dim) * 4
}

// readFrom replaces the matrix contents (snapshot load). Not
// concurrent-safe with readers or the writer.
func (m *featMat) readFrom(r io.Reader) (int64, error) {
	var read int64
	var hdr [8]byte
	k, err := io.ReadFull(r, hdr[:])
	read += int64(k)
	if err != nil {
		return read, err
	}
	dim := int(binary.LittleEndian.Uint32(hdr[0:4]))
	n := binary.LittleEndian.Uint32(hdr[4:8])
	if dim != m.dim {
		return read, fmt.Errorf("index: snapshot dim %d, shard dim %d", dim, m.dim)
	}
	fresh := newFeatMat(dim)
	buf := make([]byte, 4*dim)
	row := make([]float32, dim)
	for id := uint32(0); id < n; id++ {
		k, err = io.ReadFull(r, buf)
		read += int64(k)
		if err != nil {
			return read, err
		}
		for i := range row {
			row[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
		}
		if _, err := fresh.Append(row); err != nil {
			return read, err
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	// Bound before backing, matching Row's read order; fresh is
	// quiescent here, so this is for uniformity, not correctness.
	length := fresh.length.Load()
	m.dir.Store(fresh.dir.Load())
	m.length.Store(length)
	return read, nil
}
