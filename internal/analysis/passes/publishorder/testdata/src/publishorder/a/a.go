// Package a seeds reader load orders, good and bad, mirroring the
// featMat / inverted-list shapes from internal/index.
package a

import "sync/atomic"

type chunk struct{ rows []float32 }

type mat struct {
	width  int
	length atomic.Uint32
	dir    atomic.Pointer[[]*chunk]
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

// rowDirect indexes the Load call itself rather than a local.
func (m *mat) rowDirect(id uint32) []float32 {
	rows := (*m.dir.Load())[0].rows // want `directory pointer of m is loaded before its atomic length`
	if id >= m.length.Load() {
		return nil
	}
	return rows[:m.width]
}

// statsSnapshot loads the directory pointer and the length of the same
// structure but never indexes the directory: there is no bound to
// violate, so load order is free.
func (m *mat) statsSnapshot() (int, uint32) {
	chunks := *m.dir.Load()
	return len(chunks), m.length.Load()
}

type list struct {
	data []uint32
	n    atomic.Int64
	next atomic.Pointer[list]
}

// scanList has a per-list length but no directory pointer: out of the
// rule's scope by construction.
func (l *list) scanList() uint32 {
	n := l.n.Load()
	var last uint32
	for i := int64(0); i < n; i++ {
		last = l.data[i]
	}
	return last
}

// appendTail is the writer locating its own tail segment under its
// lock: it follows next before reading the tail's length, but indexes
// the tail through l, which is assigned from nx rather than from a Load.
// The rule follows one assignment, so the walk is out of scope.
func (l *list) appendTail(id uint32) {
	for nx := l.next.Load(); nx != nil; nx = nx.next.Load() {
		l = nx
	}
	pos := l.n.Load()
	l.data[pos] = id
	l.n.Store(pos + 1)
}
