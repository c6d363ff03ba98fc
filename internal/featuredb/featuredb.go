// Package featuredb is the feature database of Fig. 2: for every image URL
// it stores the extracted high-dimensional feature vector together with the
// owning product's attributes ("the feature database contains each image's
// high dimensional features and its corresponding product's attributes").
//
// Its central protocol is check-before-extract: the indexing pipeline
// "always checks if an image's features have been previously extracted to
// avoid the repeated feature extraction" (§2.1). GetOrCompute implements
// that protocol atomically enough for the single-writer-per-partition model
// the paper uses, and the hit/miss counters let the evaluation reproduce
// the reuse ratios of Table 1.
package featuredb

import (
	"errors"
	"fmt"
	"sync/atomic"

	"jdvs/internal/core"
	"jdvs/internal/kv"
)

// Entry is the stored record for one image.
type Entry struct {
	Feature []float32
	Attrs   core.Attrs
}

// ErrNotFound is returned when no entry exists for a URL.
var ErrNotFound = errors.New("featuredb: entry not found")

// DB is a feature database backed by the sharded KV substrate.
type DB struct {
	kv     *kv.Store
	hits   atomic.Int64 // lookups answered from the DB (extraction avoided)
	misses atomic.Int64 // lookups that required extraction
}

// New returns an empty feature database.
func New() *DB {
	return &DB{kv: kv.NewStore()}
}

// attrsLen is the fixed-size attribute block that ends every record.
const attrsLen = 22

// encodeEntry layout: feature | attrs (fixed numerics) | url-less.
// The URL is the key, so it is not duplicated in the value.
func encodeEntry(e *Entry) []byte {
	dst := make([]byte, 0, 8+4*len(e.Feature)+24)
	dst = core.AppendFeature(dst, e.Feature)
	dst = appendAttrs(dst, e.Attrs)
	return dst
}

func appendAttrs(dst []byte, a core.Attrs) []byte {
	var buf [attrsLen]byte
	putUint64(buf[0:8], a.ProductID)
	putUint32(buf[8:12], a.Sales)
	putUint32(buf[12:16], a.Praise)
	putUint32(buf[16:20], a.PriceCents)
	putUint16(buf[20:22], a.Category)
	return append(dst, buf[:]...)
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
func putUint32(b []byte, v uint32) {
	for i := 0; i < 4; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
func putUint16(b []byte, v uint16) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
}
func getUint64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}
func getUint32(b []byte) uint32 {
	var v uint32
	for i := 0; i < 4; i++ {
		v |= uint32(b[i]) << (8 * i)
	}
	return v
}

func decodeEntry(b []byte, url string) (*Entry, error) {
	f, rest, err := core.DecodeFeature(b)
	if err != nil {
		return nil, fmt.Errorf("featuredb: corrupt entry for %q: %w", url, err)
	}
	// Exactly the attribute block follows the feature: a longer record is
	// corrupt, not a valid one with ignorable trailing bytes.
	if len(rest) != attrsLen {
		return nil, fmt.Errorf("featuredb: corrupt attrs for %q: %d bytes, want %d", url, len(rest), attrsLen)
	}
	return &Entry{
		Feature: f,
		Attrs: core.Attrs{
			ProductID:  getUint64(rest[0:8]),
			Sales:      getUint32(rest[8:12]),
			Praise:     getUint32(rest[12:16]),
			PriceCents: getUint32(rest[16:20]),
			Category:   uint16(rest[20]) | uint16(rest[21])<<8,
			URL:        url,
		},
	}, nil
}

// Get returns the entry for url.
func (db *DB) Get(url string) (*Entry, error) {
	b, ok := db.kv.Get(url)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, url)
	}
	return decodeEntry(b, url)
}

// Has reports whether features were previously extracted for url.
func (db *DB) Has(url string) bool { return db.kv.Has(url) }

// Put stores (or overwrites) the entry for url.
func (db *DB) Put(url string, e *Entry) {
	db.kv.Put(url, encodeEntry(e))
}

// GetOrCompute returns the stored feature for url, or invokes extract to
// compute it, stores the result, and returns it. The hit/miss counters
// feed Table 1's reuse accounting.
func (db *DB) GetOrCompute(url string, attrs core.Attrs, extract func() ([]float32, error)) (*Entry, bool, error) {
	if b, ok := db.kv.Get(url); ok {
		e, err := decodeEntry(b, url)
		if err != nil {
			return nil, false, err
		}
		db.hits.Add(1)
		return e, true, nil
	}
	f, err := extract()
	if err != nil {
		return nil, false, fmt.Errorf("featuredb: extract for %q: %w", url, err)
	}
	e := &Entry{Feature: f, Attrs: attrs}
	db.kv.Put(url, encodeEntry(e))
	db.misses.Add(1)
	return e, false, nil
}

// Stats returns (hits, misses): lookups that reused stored features vs
// lookups that extracted fresh ones.
func (db *DB) Stats() (hits, misses int64) {
	return db.hits.Load(), db.misses.Load()
}

// ResetStats zeroes the counters (between experiment phases).
func (db *DB) ResetStats() {
	db.hits.Store(0)
	db.misses.Store(0)
}

// Len returns the number of stored entries.
func (db *DB) Len() int { return db.kv.Len() }
