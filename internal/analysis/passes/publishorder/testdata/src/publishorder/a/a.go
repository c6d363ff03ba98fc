// Package a seeds publish-protocol orderings, good and bad, mirroring
// the featMat / inverted-list shapes from internal/index.
package a

import "sync/atomic"

type chunk struct{ rows []float32 }

type mat struct {
	width  int
	length atomic.Uint32
	dir    atomic.Pointer[[]*chunk]
}

// appendGood fills the element region, then publishes.
func (m *mat) appendGood(row []float32) {
	id := m.length.Load()
	chunks := *m.dir.Load()
	off := int(id) * m.width
	copy(chunks[0].rows[off:off+m.width], row)
	m.length.Store(id + 1)
}

// appendBad publishes first: the admitted reader can observe the copy.
func (m *mat) appendBad(row []float32) {
	id := m.length.Load()
	chunks := *m.dir.Load()
	m.length.Store(id + 1)
	off := int(id) * m.width
	copy(chunks[0].rows[off:off+m.width], row) // want `plain write to the element region of m`
}

// growBad swaps the directory after the publish admitted readers to it.
func (m *mat) growBad(next []*chunk) {
	id := m.length.Load()
	m.length.Store(id + 1)
	m.dir.Store(&next) // want `atomic pointer store on m`
}

// growGood swaps the directory before publishing the new bound.
func (m *mat) growGood(next []*chunk) {
	id := m.length.Load()
	m.dir.Store(&next)
	m.length.Store(id + 1)
}

// loadSnapshot unpublishes (Store 0), rewrites the region, republishes —
// the snapshot-load idiom from mmapMat.readFrom.
func (m *mat) loadSnapshot(rows []float32) {
	m.length.Store(0)
	chunks := *m.dir.Load()
	copy(chunks[0].rows, rows)
	m.length.Store(uint32(len(rows)))
}

// appendMany is the loop-carried case: iteration i+1 writes after the
// store that published iteration i. Crossing the back edge is the
// protocol working, not a violation.
func (m *mat) appendMany(rowsIn [][]float32) {
	for _, row := range rowsIn {
		id := m.length.Load()
		chunks := *m.dir.Load()
		off := int(id) * m.width
		copy(chunks[0].rows[off:off+m.width], row)
		m.length.Store(id + 1)
	}
}

// appendJustified carries the escape hatch: suppressed, no finding.
func (m *mat) appendJustified(row []float32) {
	id := m.length.Load()
	chunks := *m.dir.Load()
	m.length.Store(id + 1)
	//jdvs:publish-ok readers are quiesced by the caller; this path runs only during single-threaded recovery
	copy(chunks[0].rows[:m.width], row)
}

// rowGood loads the length before the directory on every path.
func (m *mat) rowGood(id uint32) []float32 {
	if id >= m.length.Load() {
		return nil
	}
	chunks := *m.dir.Load()
	off := int(id) * m.width
	return chunks[0].rows[off : off+m.width]
}

// rowBad loads the directory first: a concurrent grow can swap it
// between the two loads and the bound indexes the wrong backing.
func (m *mat) rowBad(id uint32) []float32 {
	chunks := *m.dir.Load() // want `directory pointer of m is loaded before its atomic length`
	if id >= m.length.Load() {
		return nil
	}
	off := int(id) * m.width
	return chunks[0].rows[off : off+m.width]
}

// rowMaybe guards the length load behind a condition: the unguarded
// path still reaches the directory load first.
func (m *mat) rowMaybe(id uint32, checked bool) []float32 {
	if checked {
		if id >= m.length.Load() {
			return nil
		}
	}
	chunks := *m.dir.Load() // want `directory pointer of m is loaded before its atomic length`
	off := int(id) * m.width
	return chunks[0].rows[off : off+m.width]
}

type list struct {
	data []uint32
	n    atomic.Int64
}

// appendListGood is the inverted-list shape: element store, then the
// position publish.
func (l *list) appendListGood(id uint32) {
	pos := l.n.Load()
	l.data[pos] = id
	l.n.Store(pos + 1)
}

// appendListBad publishes the position before storing the element.
func (l *list) appendListBad(id uint32) {
	pos := l.n.Load()
	l.n.Store(pos + 1)
	l.data[pos] = id // want `plain write to the element region of l`
}

// scanList has a per-list length but no directory pointer: out of the
// reader rule's scope by construction.
func (l *list) scanList() uint32 {
	n := l.n.Load()
	var last uint32
	for i := int64(0); i < n; i++ {
		last = l.data[i]
	}
	return last
}

// newMat is the constructor shape: every store targets a body-local
// structure no reader can reach yet, so ordering is unconstrained.
func newMat(width int, rows []float32) *mat {
	m := &mat{width: width}
	m.length.Store(1)
	dir := []*chunk{{rows: make([]float32, width)}}
	m.dir.Store(&dir)
	copy(dir[0].rows, rows)
	return m
}

// statsSnapshot loads the directory pointer and an unrelated counter of
// the same structure but never indexes anything derived from it: there
// is no bound to violate, so load order is free.
func (m *mat) statsSnapshot() (int, uint32) {
	chunks := *m.dir.Load()
	return len(chunks), m.length.Load()
}

// sizeHintIsNotDerivation: a make() size hint taken from the published
// structure does not make the fresh map an element region of it.
func (m *mat) sizeHintIsNotDerivation(ids []uint32) map[uint32]int {
	byID := make(map[uint32]int, m.length.Load())
	m.length.Store(m.length.Load() + 1)
	for i, id := range ids {
		byID[id] = i
	}
	return byID
}
