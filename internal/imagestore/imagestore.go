// Package imagestore is the image store of Fig. 2: the blob service the
// indexing pipeline pulls product images from by URL ("the images of new
// added products during the day are pulled from an image store and their
// high dimensional features are extracted").
//
// In the paper the store (JFS) is a system of its own, outside the
// searchers' memory. Here it is one append-only file: New creates it in the
// temporary directory and unlinks it at once, so the open descriptor keeps
// the data alive and a killed process leaves nothing on disk. Memory holds
// only the URL → (offset, length) index; the blobs stay out of the Go heap.
// A typed miss error distinguishes "image not yet uploaded" (retryable)
// from corruption.
package imagestore

import (
	"errors"
	"fmt"
	"os"
	"sync"

	"jdvs/internal/core"
)

// ErrNotFound is returned when no blob exists for a URL.
var ErrNotFound = errors.New("imagestore: image not found")

// ErrClosed is returned by Get and Put after Close.
var ErrClosed = errors.New("imagestore: closed")

// ref locates one blob in the file.
type ref struct {
	off int64
	len int
}

// Store maps image URLs to encoded image blobs held in an unlinked
// append-only file. It is safe for concurrent use; callers must Close it.
type Store struct {
	f *os.File

	mu     sync.RWMutex
	end    int64 // append offset
	refs   map[string]ref
	closed bool
}

// New creates an empty store backed by a fresh unlinked file under
// os.TempDir.
func New() (*Store, error) {
	f, err := os.CreateTemp("", "jdvs-images-*")
	if err != nil {
		return nil, fmt.Errorf("imagestore: %w", err)
	}
	if err := os.Remove(f.Name()); err != nil {
		f.Close()
		return nil, fmt.Errorf("imagestore: unlink backing file: %w", err)
	}
	return &Store{f: f, refs: make(map[string]ref)}, nil
}

// Put stores blob under url's canonical form (core.NormalizeURL), so a
// variant spelling of an already-uploaded URL addresses the same blob.
// Re-uploading the same URL is allowed (product photo refresh): the new
// bytes are appended and the URL repointed at them.
func (s *Store) Put(url string, blob []byte) error {
	if url == "" {
		return errors.New("imagestore: empty url")
	}
	key := core.NormalizeURL(url)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	//jdvs:blocking-ok the mutex exists to hand out append offsets; the write lands in the page cache of a local file, and no query path takes this lock
	if _, err := s.f.WriteAt(blob, s.end); err != nil {
		return fmt.Errorf("imagestore: put %q: %w", url, err)
	}
	s.refs[key] = ref{off: s.end, len: len(blob)}
	s.end += int64(len(blob))
	return nil
}

// Get returns the blob for url (normalised before lookup) in a fresh
// buffer the caller owns.
func (s *Store) Get(url string) ([]byte, error) {
	return s.ReadInto(nil, url)
}

// ReadInto is Get reading into buf, which it grows only when too small,
// and returns the blob as a prefix of the (possibly regrown) buffer. A
// caller that reads many blobs one after another, like a full-build
// worker, reuses one buffer for all of them.
func (s *Store) ReadInto(buf []byte, url string) ([]byte, error) {
	key := core.NormalizeURL(url)
	s.mu.RLock()
	r, ok := s.refs[key]
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, url)
	}
	// A published ref points at bytes Put wrote before publishing it, and
	// later appends land past it, so the read needs no lock. A concurrent
	// Close makes it fail with os.ErrClosed.
	if cap(buf) < r.len {
		buf = make([]byte, r.len)
	}
	buf = buf[:r.len]
	if _, err := s.f.ReadAt(buf, r.off); err != nil {
		return nil, fmt.Errorf("imagestore: get %q: %w", url, err)
	}
	return buf, nil
}

// Has reports whether a blob exists for url (normalised before lookup).
func (s *Store) Has(url string) bool {
	key := core.NormalizeURL(url)
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.refs[key]
	return ok
}

// Len returns the number of stored images.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.refs)
}

// Close releases the backing file and with it every blob. Later Get and
// Put calls return ErrClosed; closing twice is a no-op.
func (s *Store) Close() error {
	s.mu.Lock()
	wasClosed := s.closed
	s.closed = true
	s.mu.Unlock()
	if wasClosed {
		return nil
	}
	return s.f.Close()
}
