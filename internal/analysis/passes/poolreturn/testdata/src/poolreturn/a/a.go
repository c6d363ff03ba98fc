// Package a seeds sync.Pool borrow/return shapes, mirroring the scratch
// pools on the batch search path.
package a

import (
	"errors"
	"sync"
)

var errFail = errors.New("fail")

type scratch struct {
	buf  []byte
	hits []int
}

var scratchPool = sync.Pool{New: func() any { return &scratch{} }}
var lutPool = sync.Pool{New: func() any { return make([]byte, 256) }}

func use(*scratch)    {}
func useBytes([]byte) {}

// deferCovered returns the buffer on every exit via defer.
func deferCovered(fail bool) error {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	if fail {
		return errFail
	}
	use(sc)
	return nil
}

// closureCovered is the SearchBatch shape: a deferred closure Puts the
// members of every borrow in a loop.
func closureCovered(n int) {
	members := make([]*scratch, 0, n)
	defer func() {
		for _, m := range members {
			scratchPool.Put(m)
		}
	}()
	for i := 0; i < n; i++ {
		sc := scratchPool.Get().(*scratch)
		members = append(members, sc)
		use(sc)
	}
}

// allPathsCovered puts on both branches without a defer.
func allPathsCovered(fail bool) {
	sc := scratchPool.Get().(*scratch)
	if fail {
		scratchPool.Put(sc)
		return
	}
	use(sc)
	scratchPool.Put(sc)
}

// earlyReturnLeaks misses the Put on the error path.
func earlyReturnLeaks(fail bool) error {
	sc := scratchPool.Get().(*scratch) // want `not returned to the pool on every exit`
	if fail {
		return errFail
	}
	use(sc)
	scratchPool.Put(sc)
	return nil
}

// panicPathIsFine: a borrow lost to an unwinding goroutine is harmless.
func panicPathIsFine(fail bool) {
	sc := scratchPool.Get().(*scratch)
	if fail {
		panic("boom")
	}
	use(sc)
	scratchPool.Put(sc)
}

// loopReborrow puts before continue and re-Gets next iteration: clean.
func loopReborrow(n int) {
	for i := 0; i < n; i++ {
		sc := scratchPool.Get().(*scratch)
		if i%2 == 0 {
			scratchPool.Put(sc)
			continue
		}
		use(sc)
		scratchPool.Put(sc)
	}
}

// otherPoolDoesNotCover: the deferred Put returns to a different pool.
func otherPoolDoesNotCover() {
	lut := lutPool.Get().([]byte) // want `not returned to the pool on every exit`
	defer scratchPool.Put(&scratch{})
	useBytes(lut)
}

// useAfterPut touches the buffer after the pool may have handed it out.
func useAfterPut() {
	sc := scratchPool.Get().(*scratch)
	scratchPool.Put(sc)
	use(sc) // want `used after the buffer it derives from was returned`
}

// derivedUseAfterPut: state chained off the borrow is just as stale.
func derivedUseAfterPut() {
	sc := scratchPool.Get().(*scratch)
	buf := sc.buf
	scratchPool.Put(sc)
	useBytes(buf) // want `used after the buffer it derives from was returned`
}

// escapeWithDeferredPut returns pooled state the defer recycles.
func escapeWithDeferredPut() []byte {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	return sc.buf // want `derives from a pooled buffer that the deferred Put recycles`
}

// copyOutIsClean: the append copies the bytes out of the borrow.
func copyOutIsClean() []byte {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	return append([]byte(nil), sc.buf...)
}

var slotPool = sync.Pool{New: func() any { return make(chan []byte, 1) }}

// receivedValueOutlivesSlot is the rpc.Call shape: the reply received from
// a pooled one-slot channel is the sender's, not the pool's, so using it
// after the slot goes back is clean.
func receivedValueOutlivesSlot() []byte {
	slot := slotPool.Get().(chan []byte)
	slot <- []byte("reply")
	var reply []byte
	select {
	case reply = <-slot:
	default:
	}
	slotPool.Put(slot)
	return reply
}

// slotUseAfterPut: the channel itself is still the pool's after the Put.
func slotUseAfterPut() {
	slot := slotPool.Get().(chan []byte)
	slotPool.Put(slot)
	slot <- nil // want `used after the buffer it derives from was returned`
}

// justifiedLeak carries the escape hatch.
func justifiedLeak(fail bool) error {
	//jdvs:pool-ok the borrow transfers to the response writer, which Puts it after the flush
	sc := scratchPool.Get().(*scratch)
	if fail {
		return errFail
	}
	use(sc)
	return nil
}
