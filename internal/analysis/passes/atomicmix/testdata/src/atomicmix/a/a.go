// Package a seeds mixed plain/atomic accesses for the atomicmix
// analyzer: the publish counter of a featMat-style matrix accessed with
// and without sync/atomic.
package a

import "sync/atomic"

var published int64

type mat struct {
	length int64
	rows   []float64
	plain  int // never touched atomically: free to access directly
	typed  atomic.Int64
	ring   []atomic.Int64
}

// append publishes a row with the atomic-length protocol.
func (m *mat) append(v float64) {
	m.rows = append(m.rows, v)
	atomic.AddInt64(&m.length, 1)
	atomic.AddInt64(&published, 1)
}

func (m *mat) lenAtomic() int64 { return atomic.LoadInt64(&m.length) }

// badLen reads the published length without the atomic load the writer
// pairs with.
func (m *mat) badLen() int64 {
	return m.length // want `plain read of length, which is accessed atomically elsewhere`
}

// badReset writes the counter plainly.
func (m *mat) badReset() {
	m.length = 0 // want `plain write of length, which is accessed atomically elsewhere`
	m.length++   // want `plain write of length, which is accessed atomically elsewhere`
}

func badGlobal() int64 {
	return published // want `plain read of published, which is accessed atomically elsewhere`
}

// initBeforePublish is a constructor: nothing else can see m yet, which
// is exactly what the nolock annotation asserts.
func initBeforePublish() *mat {
	m := &mat{}
	m.length = 0 //jdvs:nolock fresh value, not yet published
	return m
}

func (m *mat) plainFieldOK() int {
	m.plain++
	return m.plain
}

// Typed atomics: the method set is the only legal access.
func (m *mat) typedOK() int64 {
	m.typed.Add(1)
	return m.typed.Load()
}

func (m *mat) typedCopy() int64 {
	x := m.typed // want `plain value`
	return x.Load()
}

func (m *mat) typedCompare(o *mat) bool {
	return m.typed == o.typed // want `plain value` `plain value`
}

func (m *mat) typedRange() int64 {
	var sum int64
	for _, slot := range m.ring { // want `range value copies sync/atomic elements`
		sum += slot.Load()
	}
	for i := range m.ring {
		sum += m.ring[i].Load()
	}
	return sum
}

func (m *mat) typedAddr() *atomic.Int64 { return &m.typed }
