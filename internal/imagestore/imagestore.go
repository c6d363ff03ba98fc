// Package imagestore is the image store of Fig. 2: the blob service the
// indexing pipeline pulls product images from by URL ("the images of new
// added products during the day are pulled from an image store and their
// high dimensional features are extracted").
//
// The blobs live in a blobfile.File, outside the Go heap. This package adds
// what makes it an image store: URLs are keyed by their canonical form, an
// empty URL is rejected, and a typed miss error distinguishes "image not
// yet uploaded" (retryable) from corruption.
package imagestore

import (
	"errors"
	"fmt"

	"jdvs/internal/blobfile"
	"jdvs/internal/core"
)

// ErrNotFound is returned when no blob exists for a URL.
var ErrNotFound = errors.New("imagestore: image not found")

// Store maps image URLs to encoded image blobs. It is safe for concurrent
// use; callers must Close it. After Close, Put, Get and ReadInto fail
// with blobfile.ErrClosed.
type Store struct {
	blobs *blobfile.File
}

// New creates an empty store backed by a fresh unlinked file under
// os.TempDir.
func New() (*Store, error) {
	b, err := blobfile.New()
	if err != nil {
		return nil, fmt.Errorf("imagestore: %w", err)
	}
	return &Store{blobs: b}, nil
}

// Put stores blob under url's canonical form (core.NormalizeURL), so a
// variant spelling of an already-uploaded URL addresses the same blob.
// Re-uploading the same URL is allowed (product photo refresh): the new
// bytes are appended and the URL repointed at them.
func (s *Store) Put(url string, blob []byte) error {
	if url == "" {
		return errors.New("imagestore: empty url")
	}
	return s.blobs.Put(core.NormalizeURL(url), blob)
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
	b, ok, err := s.blobs.ReadInto(buf, core.NormalizeURL(url))
	if err == nil && !ok {
		err = fmt.Errorf("%w: %q", ErrNotFound, url)
	}
	return b, err
}

// Len returns the number of stored images.
func (s *Store) Len() int { return s.blobs.Len() }

// Close releases the backing file and with it every blob; closing twice
// is a no-op.
func (s *Store) Close() error { return s.blobs.Close() }
