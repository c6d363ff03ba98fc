// Package inverted implements the paper's real-time inverted index
// (Figs. 5, 8 and 9).
//
// The index is a fixed set of N inverted lists, one per feature cluster
// (IVF). Each list stores image IDs in a pre-allocated array and carries an
// auxiliary "position of the last element" counter (§2.3, Fig. 5) through
// which appends are published: the writer stores the element first and then
// advances the counter with an atomic store, so concurrent searches scan a
// stable, fully initialised prefix without taking any lock.
//
// When a list's pre-allocated memory is exhausted, the expansion protocol of
// Fig. 9 kicks in: a new list of double capacity is allocated, new image IDs
// are appended to the new list, and a background process copies the old
// contents across; "the current inverted list continues to serve the
// requests until [the] background process finishes copying", after which an
// atomic pointer swap retires the old list. Readers additionally scan the
// committed tail of the in-progress new list so that freshly inserted images
// are searchable immediately — the sub-second freshness guarantee is never
// suspended, even mid-expansion.
//
// Appends are serialised per index (each partition has exactly one real-time
// indexing writer, per Fig. 4); reads are always lock-free.
package inverted

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
)

// initialCap is the pre-allocated capacity of each inverted list.
const initialCap = 64

// list is one immutable-capacity segment of an inverted list. data[0:base)
// is reserved for the background copy of the predecessor's contents and must
// not be read until this segment becomes the current head; data[base:n) is
// the committed tail of freshly appended IDs, readable immediately.
type list struct {
	data []uint32
	base int          // prefix reserved for migration copy
	n    atomic.Int64 // committed length (the auxiliary last-position entry)
	next atomic.Pointer[list]
}

func newList(capacity, base int) *list {
	l := &list{data: make([]uint32, capacity), base: base}
	l.n.Store(int64(base))
	return l
}

// extent returns the segment's committed length and its successor, as one
// consistent reading. A segment gains a successor only once it is full, so
// when one is seen the length is the capacity: a counter read just before
// could be stale, and a reader pairing it with the successor's tail would
// skip the entries in between.
func (l *list) extent() (int, *list) {
	n := int(l.n.Load())
	next := l.next.Load()
	if next != nil {
		n = len(l.data)
	}
	return n, next
}

// Index is a set of N inverted lists. The zero value is not usable; call
// New.
type Index struct {
	lists []atomic.Pointer[list]

	mu        sync.Mutex // serialises appends and expansion decisions
	migrating []atomic.Bool
	wg        sync.WaitGroup

	total atomic.Int64 // total committed IDs across lists
}

// New returns an index with n lists, each pre-allocated to initialCap
// entries.
func New(n int) *Index {
	if n <= 0 {
		panic("inverted: list count must be positive")
	}
	ix := &Index{
		lists:     make([]atomic.Pointer[list], n),
		migrating: make([]atomic.Bool, n),
	}
	for i := range ix.lists {
		ix.lists[i].Store(newList(initialCap, 0))
	}
	return ix
}

// Lists returns the number of inverted lists (the IVF cluster count N).
func (ix *Index) Lists() int { return len(ix.lists) }

// Len returns the total number of committed image IDs across all lists.
func (ix *Index) Len() int { return int(ix.total.Load()) }

// ListLen returns the committed length of list c, migration tails
// included: the auxiliary last-element position that Fig. 5's aux array
// maintains.
func (ix *Index) ListLen(c int) int {
	n, next := ix.lists[c].Load().extent()
	for l := next; l != nil; l = next {
		var ln int
		ln, next = l.extent()
		n += ln - l.base
	}
	return n
}

// Append adds image id to the end of inverted list c (Fig. 8). It is safe
// to call concurrently with Scan; concurrent Appends are serialised
// internally.
func (ix *Index) Append(c int, id uint32) error {
	if c < 0 || c >= len(ix.lists) {
		return fmt.Errorf("inverted: list %d out of range [0,%d)", c, len(ix.lists))
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()

	// Walk to the tail segment of the migration chain: new IDs always go to
	// the most recent segment.
	l := ix.lists[c].Load()
	// Append holds ix.mu, the sole-writer lock, so this is the writer
	// locating its own tail, not a reader snapshot: following next before
	// reading n is safe here.
	for nx := l.next.Load(); nx != nil; nx = nx.next.Load() {
		l = nx
	}
	pos := l.n.Load()
	if int(pos) == len(l.data) {
		// Expansion (Fig. 9): allocate a double-size segment whose prefix is
		// reserved for the background copy; append into its tail. A list
		// decoded empty (ReadFrom) has no segment capacity to double.
		nl := newList(max(len(l.data)*2, initialCap), len(l.data))
		l.next.Store(nl)
		ix.startMigration(c)
		l = nl
		pos = l.n.Load()
	}
	l.data[pos] = id
	l.n.Store(pos + 1) // publish
	ix.total.Add(1)
	return nil
}

// startMigration launches the background copy process for list c if one is
// not already running. Caller holds mu.
func (ix *Index) startMigration(c int) {
	if !ix.migrating[c].CompareAndSwap(false, true) {
		return
	}
	ix.wg.Add(1)
	go func() {
		defer ix.wg.Done()
		defer ix.migrating[c].Store(false)
		for {
			cur := ix.lists[c].Load()
			nx := cur.next.Load()
			if nx == nil {
				return
			}
			// cur is full and immutable (appends moved to nx when it
			// filled); nx.data[0:nx.base) is reserved for this copy.
			copy(nx.data[:nx.base], cur.data)
			// Retire cur: readers arriving after this swap see the merged
			// segment; readers still holding cur continue to read its
			// immutable data plus nx's committed tail.
			ix.lists[c].Store(nx)
		}
	}()
}

// Flush blocks until all in-progress background migrations complete. It is
// primarily for tests and snapshotting.
func (ix *Index) Flush() {
	// New migrations can only start from Append; callers quiesce appends
	// before snapshotting, so waiting on the current set is sufficient.
	ix.wg.Wait()
}

// Scan invokes fn for every committed image ID in list c, in insertion
// order. fn returning false stops the scan early. Scan is lock-free and
// safe concurrently with Append and with background migration.
func (ix *Index) Scan(c int, fn func(id uint32) bool) {
	if c < 0 || c >= len(ix.lists) {
		return
	}
	l := ix.lists[c].Load()
	// Head segment: readable from 0. If this segment was reached directly
	// from lists[c], its reserved prefix (if any) has already been filled by
	// the completed migration that made it the head — except when it is
	// mid-migration, in which case only [base:n) is valid; but a segment
	// with base>0 only becomes the head after its prefix copy completed, so
	// scanning [0:n) here is always safe.
	n, next := l.extent()
	for i := 0; i < n; i++ {
		if !fn(l.data[i]) {
			return
		}
	}
	// Follow the migration chain: each successor's committed tail holds IDs
	// appended after the predecessor filled.
	for l = next; l != nil; l = next {
		n, next = l.extent()
		for i := l.base; i < n; i++ {
			if !fn(l.data[i]) {
				return
			}
		}
	}
}

// View returns the committed image IDs of list c, in Scan's order, as one
// slice. When no expansion of the list is in flight that is the head
// segment's own committed prefix, with cap == len: a read-only alias that
// the caller must not write through (an append reallocates rather than
// writing into the list). Otherwise the head's entries and each successor's
// committed tail are copied into *buf, grown as needed and kept there for
// the caller's next call. View is lock-free and safe concurrently with
// Append and with background migration, like Scan.
func (ix *Index) View(c int, buf *[]uint32) []uint32 {
	if c < 0 || c >= len(ix.lists) {
		return nil
	}
	l := ix.lists[c].Load()
	// Committed entries of a segment are never rewritten: appends write past
	// n, and migration fills a successor's reserved prefix, never l.
	n, next := l.extent()
	if next == nil {
		return l.data[:n:n]
	}
	ids := append((*buf)[:0], l.data[:n]...)
	for l = next; l != nil; l = next {
		n, next = l.extent()
		ids = append(ids, l.data[l.base:n]...)
	}
	*buf = ids
	return ids
}

// WriteTo serialises the index. Appends must be quiesced; migrations are
// flushed first.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	ix.Flush()
	var written int64
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(ix.lists)))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(ix.Len()))
	k, err := w.Write(hdr[:])
	written += int64(k)
	if err != nil {
		return written, err
	}
	var lenBuf [4]byte
	elem := make([]byte, 0, 4096)
	for c := range ix.lists {
		elem = elem[:0]
		ix.Scan(c, func(id uint32) bool {
			var e [4]byte
			binary.LittleEndian.PutUint32(e[:], id)
			elem = append(elem, e[:]...)
			return true
		})
		binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(elem)/4))
		k, err = w.Write(lenBuf[:])
		written += int64(k)
		if err != nil {
			return written, err
		}
		k, err = w.Write(elem)
		written += int64(k)
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// readStep is how many ids ReadFrom decodes per read.
const readStep = 1024

// ReadFrom decodes a WriteTo stream, which must carry nLists lists, into a
// new index. Counts in the stream are claims until the bytes behind them
// arrive, so a list's ids are stored only as they are read: a list holds
// no spare capacity up front, and an empty one none at all.
func ReadFrom(r io.Reader, nLists int) (*Index, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	if got := int(binary.LittleEndian.Uint32(hdr[0:4])); got != nLists {
		return nil, fmt.Errorf("inverted: snapshot has %d lists, want %d", got, nLists)
	}
	ix := &Index{
		lists:     make([]atomic.Pointer[list], nLists),
		migrating: make([]atomic.Bool, nLists),
	}
	var total int64
	var raw [4 * readStep]byte
	for c := range ix.lists {
		if _, err := io.ReadFull(r, raw[:4]); err != nil {
			return nil, err
		}
		n := int(binary.LittleEndian.Uint32(raw[:4]))
		var data []uint32
		for len(data) < n {
			step := min(n-len(data), readStep)
			if _, err := io.ReadFull(r, raw[:4*step]); err != nil {
				return nil, err
			}
			if len(data)+step > cap(data) {
				data = slices.Grow(data, min(n-len(data), max(len(data), step)))
			}
			for i := 0; i < step; i++ {
				data = append(data, binary.LittleEndian.Uint32(raw[4*i:]))
			}
		}
		l := &list{data: data[:cap(data)]}
		l.n.Store(int64(n))
		total += int64(n)
		ix.lists[c].Store(l)
	}
	if want := int64(binary.LittleEndian.Uint32(hdr[4:8])); total != want {
		return nil, fmt.Errorf("inverted: snapshot lists hold %d ids, header says %d", total, want)
	}
	ix.total.Store(total)
	return ix, nil
}
