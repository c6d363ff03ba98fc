package index

import (
	"encoding/binary"
	"io"
	"math"
)

// Feature-row storage selectors for Config.FeatureStore. The scan path
// reads PQ codes (codeBlocks, always RAM-resident); the raw float rows
// behind them are touched only for exact re-rank, the exact-path fallback
// and PQ training, so where they live is a capacity/latency trade:
//
//   - FeatureStoreRAM: rows in heap chunks (featMat). Dim×4 bytes of RAM
//     per image; every row read is a plain memory load.
//   - FeatureStoreMmap: rows in an unlinked spill file served through the
//     OS page cache. Per-image RAM drops to the M code bytes (plus the
//     spill file's resident pages, which the kernel evicts under
//     pressure), so one shard's RAM budget holds several× more images —
//     at the cost of a possible page fault on a cold re-rank row.
const (
	FeatureStoreRAM  = "ram"
	FeatureStoreMmap = "mmap"
)

// rowStore is the feature matrix behind a shard: row i holds the feature
// vector of image ID i, aligned with the forward index. Implementations
// share the shard's concurrency contract — one real-time writer appends
// while any number of search threads read committed rows lock-free — and
// one snapshot wire format, so WriteSnapshot/LoadSnapshot streams are
// byte-identical and interchangeable across stores.
type rowStore interface {
	// Append commits row as the next row and returns its index. Rows are
	// immutable once committed. Single-writer.
	Append(row []float32) (uint32, error)
	// Row returns committed row id (nil if uncommitted). Callers must not
	// modify the result, and must not retain it past the owning shard's
	// lifetime (the mmap store unmaps its pages on Close).
	Row(id uint32) []float32
	// Len returns the number of committed rows.
	Len() int
	// writeTo serialises [4B dim][4B rows][rows×dim little-endian float32]
	// — the snapshot feature section, identical across stores.
	writeTo(w io.Writer) (int64, error)
	// readFrom replaces the contents from a writeTo stream. Not
	// concurrent-safe with readers or the writer.
	readFrom(r io.Reader) (int64, error)
	// heapBytes reports the Go-heap bytes held for row storage — the
	// number the FeatureStoreMmap capacity win is measured against
	// (mmap'd pages are page cache, not heap).
	heapBytes() int64
	// Close releases storage (spill file and mappings for the mmap
	// store). Reads and writes must be quiesced. Idempotent.
	Close() error
}

// newFeatStore builds the feature-row store cfg selects. cfg must already
// be validated (Config.validate normalises and rejects FeatureStore
// values; it is the single place that knows the legal set).
func newFeatStore(cfg Config) (rowStore, error) {
	if cfg.FeatureStore == FeatureStoreMmap {
		return newMmapMat(cfg.Dim, cfg.SpillDir)
	}
	return newFeatMat(cfg.Dim), nil
}

// writeFloatRows is the shared snapshot encoder behind every rowStore's
// writeTo: one codec, so stores can never drift apart on the wire.
func writeFloatRows(w io.Writer, width int, n uint32, row func(uint32) []float32) (int64, error) {
	var written int64
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(width))
	binary.LittleEndian.PutUint32(hdr[4:8], n)
	k, err := w.Write(hdr[:])
	written += int64(k)
	if err != nil {
		return written, err
	}
	buf := make([]byte, 4*width)
	for id := uint32(0); id < n; id++ {
		for i, v := range row(id) {
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
