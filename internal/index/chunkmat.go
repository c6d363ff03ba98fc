package index

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// chunkMat is the chunked core of featMat, the RAM feature-row store: row
// i belongs to image ID i, aligned with the forward index. (PQ codes are
// not ID-keyed: they live per inverted list in codeBlocks, which follows
// the same publish protocol.) Rows live in fixed-size chunks behind an
// atomically published directory, so the search path reads rows lock-free
// while the (single) real-time indexing writer appends — a row is visible
// only once the length counter publishes it, and committed rows are
// immutable.
type chunkMat[T any] struct {
	label    string // row-kind noun for error messages, e.g. "feature dim"
	width    int    // elements per row
	perChunk int    // rows per chunk

	mu     sync.Mutex
	dir    atomic.Pointer[[]*matChunk[T]]
	length atomic.Uint32
}

type matChunk[T any] struct {
	rows []T // perChunk × width, allocated once
}

// init prepares the matrix in place (chunkMat holds a mutex and atomics,
// so it is embedded and initialised rather than returned by value).
func (m *chunkMat[T]) init(label string, width, perChunk int) {
	m.label = label
	m.width = width
	m.perChunk = perChunk
	dir := []*matChunk[T]{}
	m.dir.Store(&dir)
}

// Len returns the number of committed rows.
func (m *chunkMat[T]) Len() int { return int(m.length.Load()) }

// Append stores row as the next row and returns its row index. row must
// have exactly width elements.
func (m *chunkMat[T]) Append(row []T) (uint32, error) {
	if len(row) != m.width {
		return 0, fmt.Errorf("index: %s %d, shard %s %d", m.label, len(row), m.label, m.width)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	id := m.length.Load()
	chunks := *m.dir.Load()
	ci := int(id) / m.perChunk
	if ci >= len(chunks) {
		next := make([]*matChunk[T], ci+1)
		copy(next, chunks)
		for i := len(chunks); i <= ci; i++ {
			next[i] = &matChunk[T]{rows: make([]T, m.perChunk*m.width)}
		}
		m.dir.Store(&next)
		chunks = next
	}
	off := (int(id) % m.perChunk) * m.width
	copy(chunks[ci].rows[off:off+m.width], row)
	m.length.Store(id + 1) // publish
	return id, nil
}

// Row returns row id as a sub-slice of chunk storage. Rows are immutable
// once committed; callers must not modify the result. Returns nil for
// uncommitted ids.
func (m *chunkMat[T]) Row(id uint32) []T {
	if id >= m.length.Load() {
		return nil
	}
	chunks := *m.dir.Load()
	off := (int(id) % m.perChunk) * m.width
	return chunks[int(id)/m.perChunk].rows[off : off+m.width]
}

// replace swaps in another matrix's contents (snapshot load). Not
// concurrent-safe with readers or the writer.
func (m *chunkMat[T]) replace(fresh *chunkMat[T]) {
	m.mu.Lock()
	defer m.mu.Unlock()
	// Bound before backing, matching Row's read order; fresh is
	// quiescent here, so this is for uniformity, not correctness.
	length := fresh.length.Load()
	m.dir.Store(fresh.dir.Load())
	m.length.Store(length)
}
