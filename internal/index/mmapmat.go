//go:build linux || darwin

package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// mmapMat is the disk-tiered feature-row store: rows live in an unlinked
// spill file mapped MAP_SHARED, so reads are served through the OS page
// cache and the rows cost the shard no Go heap. The real-time writer
// appends by copying the row into the mapping and publishing it with an
// atomic length store — freshly appended rows sit in dirty page-cache
// pages (the in-RAM tail of the store) until kernel writeback tiers them
// to disk, and cold rows fault back in on the first re-rank touch.
//
// Concurrency matches featMat exactly: committed rows are immutable, a
// row becomes visible only through the length counter, and any number of
// readers run against the single writer without locks. Capacity grows by
// ftruncate-and-remap (geometric doubling); superseded mappings stay
// mapped until Close so in-flight readers holding row slices never touch
// unmapped memory — they address the same file pages, so the cost is
// address space, not RAM.
//
// The spill file is unlinked at creation: storage is reclaimed by the
// kernel when the file handle closes, even on crash. A finalizer backstops
// shards dropped without Close (e.g. hot-swapped out by a snapshot push).
type mmapMat struct {
	width int // floats per row

	mu     sync.Mutex // serialises Append, growth and snapshot replace
	f      *os.File   // unlinked spill file
	view   atomic.Pointer[mmapView]
	length atomic.Uint32

	retired [][]byte // superseded mappings, unmapped only at Close
	closed  atomic.Bool
}

// mmapView is the atomically published mapping generation: raw is the
// mmap'd byte region, rows the same memory as float32s.
type mmapView struct {
	raw     []byte
	rows    []float32
	capRows int
}

// mmapMinRows sizes the first mapping (4096 rows — 1 MiB at dim 64), so
// one ftruncate covers the first few thousand real-time appends.
const mmapMinRows = 1 << 12

// nativeLittleEndian gates the zero-decode snapshot load: the feature
// section's little-endian float32 stream is the in-memory layout on every
// little-endian platform, so it can be read straight into the mapping.
var nativeLittleEndian = func() bool {
	var buf [2]byte
	*(*uint16)(unsafe.Pointer(&buf[0])) = 0x0102
	return buf[0] == 0x02
}()

var errMmapClosed = errors.New("index: mmap feature store is closed")

func newMmapMat(dim int, spillDir string) (rowStore, error) {
	if spillDir == "" {
		spillDir = os.TempDir()
	}
	f, err := os.CreateTemp(spillDir, "jdvs-feat-*.spill")
	if err != nil {
		return nil, fmt.Errorf("index: create feature spill file: %w", err)
	}
	// Unlink immediately: the storage lives exactly as long as the fd (and
	// the mappings), so no spill file can outlive its shard, crash
	// included.
	if err := os.Remove(f.Name()); err != nil {
		f.Close()
		return nil, fmt.Errorf("index: unlink feature spill file: %w", err)
	}
	m := &mmapMat{width: dim, f: f}
	m.view.Store(&mmapView{})
	runtime.SetFinalizer(m, func(m *mmapMat) { _ = m.Close() })
	return m, nil
}

// Len returns the number of committed rows.
func (m *mmapMat) Len() int { return int(m.length.Load()) }

// Row returns committed row id as a slice into the mapped file. The load
// order matters: length first (acquire), then the view — views only ever
// cover more rows, so a view loaded after the length check always holds
// row id.
func (m *mmapMat) Row(id uint32) []float32 {
	if id >= m.length.Load() {
		return nil
	}
	v := m.view.Load()
	lo, hi := int(id)*m.width, (int(id)+1)*m.width
	return v.rows[lo:hi:hi]
}

// Append commits row as the next row, growing the spill file as needed.
func (m *mmapMat) Append(row []float32) (uint32, error) {
	if len(row) != m.width {
		return 0, fmt.Errorf("index: feature dim %d, shard feature dim %d", len(row), m.width)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed.Load() {
		return 0, errMmapClosed
	}
	id := m.length.Load()
	v := m.view.Load()
	if int(id) >= v.capRows {
		var err error
		if v, err = m.grow(int(id) + 1); err != nil {
			return 0, err
		}
	}
	copy(v.rows[int(id)*m.width:(int(id)+1)*m.width], row)
	m.length.Store(id + 1) // publish
	return id, nil
}

// grow extends the spill file to hold at least need rows and publishes a
// mapping covering it. Caller holds mu.
func (m *mmapMat) grow(need int) (*mmapView, error) {
	v := m.view.Load()
	capRows := v.capRows
	if capRows == 0 {
		capRows = mmapMinRows
	}
	for capRows < need {
		capRows *= 2
	}
	size := capRows * m.width * 4
	if err := m.f.Truncate(int64(size)); err != nil {
		return nil, fmt.Errorf("index: grow feature spill file: %w", err)
	}
	// Reserve the blocks now (where the platform can): a bare ftruncate
	// leaves the file sparse, and a later ENOSPC would surface as an
	// uncatchable SIGBUS on the first store into an unbackable page —
	// killing the daemon mid-insert instead of returning an error here.
	if err := reserveSpill(m.f, int64(size)); err != nil {
		return nil, fmt.Errorf("index: reserve feature spill file: %w", err)
	}
	raw, err := syscall.Mmap(int(m.f.Fd()), 0, size,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("index: map feature spill file: %w", err)
	}
	rows := unsafe.Slice((*float32)(unsafe.Pointer(&raw[0])), capRows*m.width)
	if v.raw != nil {
		// In-flight readers may still hold slices into the old mapping;
		// retire it but keep it mapped until Close.
		m.retired = append(m.retired, v.raw)
	}
	nv := &mmapView{raw: raw, rows: rows, capRows: capRows}
	m.view.Store(nv)
	return nv, nil
}

// writeTo serialises the snapshot feature section — the shared codec, so
// the stream is byte-identical to the RAM store's.
func (m *mmapMat) writeTo(w io.Writer) (int64, error) {
	return writeFloatRows(w, m.width, m.length.Load(), m.Row)
}

// readFrom replaces the contents from a writeTo stream. The feature
// section is read straight into the mapping — the rows never pass through
// heap chunks — then published with one length store. Not concurrent-safe.
//
//jdvs:blocking-ok snapshot load is writer-context with searches quiesced; mu is held across the reads only to exclude Close
func (m *mmapMat) readFrom(r io.Reader) (int64, error) {
	var read int64
	var hdr [8]byte
	k, err := io.ReadFull(r, hdr[:])
	read += int64(k)
	if err != nil {
		return read, err
	}
	dim := int(binary.LittleEndian.Uint32(hdr[0:4]))
	n := binary.LittleEndian.Uint32(hdr[4:8])
	if dim != m.width {
		return read, fmt.Errorf("index: snapshot dim %d, shard dim %d", dim, m.width)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed.Load() {
		return read, errMmapClosed
	}
	m.length.Store(0)
	v := m.view.Load()
	if int(n) > v.capRows {
		if v, err = m.grow(int(n)); err != nil {
			return read, err
		}
	}
	if n > 0 {
		if nativeLittleEndian {
			k, err := io.ReadFull(r, v.raw[:int(n)*m.width*4])
			read += int64(k)
			if err != nil {
				return read, err
			}
		} else {
			buf := make([]byte, 4*m.width)
			for id := uint32(0); id < n; id++ {
				k, err := io.ReadFull(r, buf)
				read += int64(k)
				if err != nil {
					return read, err
				}
				row := v.rows[int(id)*m.width : (int(id)+1)*m.width]
				for i := range row {
					row[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
				}
			}
		}
	}
	m.length.Store(n)
	return read, nil
}

// heapBytes: the rows live in the page cache, not the Go heap; only the
// bookkeeping struct and retired-mapping headers are heap-resident. Takes
// mu because stats readers run concurrently with the writer's grow()
// appending to retired.
func (m *mmapMat) heapBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return int64(unsafe.Sizeof(*m)) + int64(len(m.retired))*int64(unsafe.Sizeof([]byte{}))
}

// dropPages advises the kernel to evict the store's resident pages — the
// cold-page fault injector behind the re-rank benchmarks. Contents are
// not lost (MAP_SHARED pages re-fault from the file); the next row reads
// pay the fault cost a memory-pressured shard would.
func (m *mmapMat) dropPages() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	v := m.view.Load()
	if v.raw == nil {
		return nil
	}
	return syscall.Madvise(v.raw, syscall.MADV_DONTNEED)
}

// Close unmaps every mapping generation and closes the (already unlinked)
// spill file, releasing its storage. Reads and writes must be quiesced.
//
//jdvs:blocking-ok teardown with reads quiesced; mu must cover the unmaps to exclude a concurrent load or grow
func (m *mmapMat) Close() error {
	if !m.closed.CompareAndSwap(false, true) {
		return nil
	}
	runtime.SetFinalizer(m, nil)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.length.Store(0)
	v := m.view.Load()
	m.view.Store(&mmapView{})
	var firstErr error
	if v.raw != nil {
		firstErr = syscall.Munmap(v.raw)
	}
	for _, raw := range m.retired {
		if err := syscall.Munmap(raw); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	m.retired = nil
	if err := m.f.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
