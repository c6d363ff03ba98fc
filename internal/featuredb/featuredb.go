// Package featuredb is the feature database of Fig. 2: for every image URL
// it stores the extracted high-dimensional feature vector. The paper's
// database also holds the owning product's attributes ("the feature
// database contains each image's high dimensional features and its
// corresponding product's attributes"); here the shard takes those from
// the update event, so a record is the feature alone, in
// core.AppendFeature's encoding, kept off the Go heap in a blobfile.File.
//
// Its central protocol is check-before-extract: the indexing pipeline
// "always checks if an image's features have been previously extracted to
// avoid the repeated feature extraction" (§2.1). GetOrCompute implements
// that protocol atomically enough for the single-writer-per-partition model
// the paper uses, and the hit/miss counters let the evaluation reproduce
// the reuse ratios of Table 1. Only the first extraction of a URL writes,
// so the file grows with distinct URLs, not with events.
//
// URLs are keys exactly as given: callers pass them in canonical form.
package featuredb

import (
	"fmt"
	"sync/atomic"

	"jdvs/internal/blobfile"
	"jdvs/internal/core"
)

// DB is a feature database. It is safe for concurrent use; callers must
// Close it. After Close, Put and GetOrCompute fail with blobfile.ErrClosed.
type DB struct {
	blobs  *blobfile.File
	hits   atomic.Int64 // lookups answered from the DB (extraction avoided)
	misses atomic.Int64 // lookups that required extraction
}

// New returns an empty feature database backed by a fresh unlinked file
// under os.TempDir.
func New() (*DB, error) {
	b, err := blobfile.New()
	if err != nil {
		return nil, fmt.Errorf("featuredb: %w", err)
	}
	return &DB{blobs: b}, nil
}

// decodeEntry decodes one stored record: exactly one encoded feature. A
// longer record is corrupt, not a valid one with ignorable trailing bytes.
func decodeEntry(b []byte, url string) ([]float32, error) {
	f, rest, err := core.DecodeFeature(b)
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("%d trailing bytes", len(rest))
	}
	if err != nil {
		return nil, fmt.Errorf("featuredb: corrupt entry for %q: %w", url, err)
	}
	return f, nil
}

// Put stores (or overwrites) the feature for url.
func (db *DB) Put(url string, feature []float32) error {
	return db.blobs.Put(url, core.AppendFeature(nil, feature))
}

// GetOrCompute returns the stored feature for url, or invokes extract to
// compute it, stores the result, and returns it. reused reports whether
// extraction was avoided. The hit/miss counters feed Table 1's reuse
// accounting.
func (db *DB) GetOrCompute(url string, extract func() ([]float32, error)) (feature []float32, reused bool, err error) {
	// A record up to dim 512 is read into (and a fresh one encoded in)
	// this stack buffer, so a hit allocates only the returned feature.
	var stack [4 + 4*512]byte
	b, ok, err := db.blobs.ReadInto(stack[:0], url)
	if err != nil {
		return nil, false, fmt.Errorf("featuredb: %w", err)
	}
	if ok {
		f, err := decodeEntry(b, url)
		if err != nil {
			return nil, false, err
		}
		db.hits.Add(1)
		return f, true, nil
	}
	f, err := extract()
	if err != nil {
		return nil, false, fmt.Errorf("featuredb: extract for %q: %w", url, err)
	}
	if err := db.blobs.Put(url, core.AppendFeature(stack[:0], f)); err != nil {
		return nil, false, fmt.Errorf("featuredb: %w", err)
	}
	db.misses.Add(1)
	return f, false, nil
}

// Stats returns (hits, misses): lookups that reused stored features vs
// lookups that extracted fresh ones.
func (db *DB) Stats() (hits, misses int64) {
	return db.hits.Load(), db.misses.Load()
}

// Close releases the backing file and with it every stored feature;
// closing twice is a no-op.
func (db *DB) Close() error { return db.blobs.Close() }
