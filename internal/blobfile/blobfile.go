// Package blobfile is the storage under both simulated substrates of
// Fig. 2, the image store and the feature database. In the paper each is a
// system of its own, outside the searchers' memory. Here each is one
// append-only file: New creates it in the temporary directory and unlinks
// it at once, so the open descriptor keeps the data alive and a killed
// process leaves nothing on disk. Memory holds only the key → (offset,
// length) map; the blobs stay out of the Go heap.
//
// Keys are used exactly as given. A store that wants canonical keys
// canonicalises them before calling in.
package blobfile

import (
	"errors"
	"fmt"
	"hash/maphash"
	"os"
	"sync"
	"sync/atomic"
)

// ErrClosed is returned by Put and ReadInto after Close.
var ErrClosed = errors.New("blobfile: closed")

// ref locates one blob in the file.
type ref struct {
	off int64
	len int
}

// shardCount splits the key map so that a Put blocks only the lookups of
// its own shard. Every real-time re-addition on every searcher looks a
// feature up here: with one lock, each Put of a fresh feature stalled all
// of them, and with more goroutines than cores a stalled reader waits for
// a processor, not only for the lock.
const shardCount = 64

type shard struct {
	mu   sync.RWMutex
	refs map[string]ref
}

// File maps keys to blobs held in an unlinked append-only file. It is safe
// for concurrent use; callers must Close it.
type File struct {
	file   *os.File
	seed   maphash.Seed
	end    atomic.Int64 // append offset
	closed atomic.Bool
	shards [shardCount]shard
}

// New creates an empty File backed by a fresh unlinked file under
// os.TempDir.
func New() (*File, error) {
	file, err := os.CreateTemp("", "jdvs-blobs-*")
	if err != nil {
		return nil, fmt.Errorf("blobfile: %w", err)
	}
	if err := os.Remove(file.Name()); err != nil {
		file.Close()
		return nil, fmt.Errorf("blobfile: unlink backing file: %w", err)
	}
	f := &File{file: file, seed: maphash.MakeSeed()}
	for i := range f.shards {
		f.shards[i].refs = make(map[string]ref)
	}
	return f, nil
}

func (f *File) shard(key string) *shard {
	return &f.shards[maphash.String(f.seed, key)%shardCount]
}

// Put stores blob under key. Putting an existing key again appends the new
// bytes and repoints the key at them.
func (f *File) Put(key string, blob []byte) error {
	if f.closed.Load() {
		return ErrClosed
	}
	// The reserved range is this call's alone, so the write takes no lock;
	// the key is published only after its bytes are in the file. A
	// concurrent Close makes the write fail with os.ErrClosed.
	off := f.end.Add(int64(len(blob))) - int64(len(blob))
	if _, err := f.file.WriteAt(blob, off); err != nil {
		return fmt.Errorf("blobfile: put %q: %w", key, err)
	}
	s := f.shard(key)
	s.mu.Lock()
	s.refs[key] = ref{off: off, len: len(blob)}
	s.mu.Unlock()
	return nil
}

// ReadInto reads the blob stored under key into buf, which it grows only
// when too small, and returns it as a prefix of the (possibly regrown)
// buffer. ok is false, with a nil error, when no blob is stored under key.
func (f *File) ReadInto(buf []byte, key string) (_ []byte, ok bool, err error) {
	if f.closed.Load() {
		return nil, false, ErrClosed
	}
	s := f.shard(key)
	s.mu.RLock()
	r, ok := s.refs[key]
	s.mu.RUnlock()
	if !ok {
		return nil, false, nil
	}
	// A published ref points at bytes Put wrote before publishing it, and
	// later appends land past it, so the read needs no lock. A concurrent
	// Close makes it fail with os.ErrClosed.
	if cap(buf) < r.len {
		buf = make([]byte, r.len)
	}
	buf = buf[:r.len]
	if _, err := f.file.ReadAt(buf, r.off); err != nil {
		return nil, false, fmt.Errorf("blobfile: get %q: %w", key, err)
	}
	return buf, true, nil
}

// Len returns the number of stored keys.
func (f *File) Len() int {
	n := 0
	for i := range f.shards {
		s := &f.shards[i]
		s.mu.RLock()
		n += len(s.refs)
		s.mu.RUnlock()
	}
	return n
}

// Close releases the backing file and with it every blob. Later Put and
// ReadInto calls return ErrClosed; closing twice is a no-op.
func (f *File) Close() error {
	if f.closed.Swap(true) {
		return nil
	}
	return f.file.Close()
}
