// Package kv is the distributed key-value store substrate of Fig. 2: the
// feature-extraction pipeline "first checks if the image's features have
// been extracted through a distributed key-value store", and the feature
// database itself is keyed by image URL.
//
// The store is a 256-way sharded concurrent map with copy-at-boundary
// semantics ([]byte values are copied on Put and Get, so callers can never
// alias internal state). Its one user, featuredb, embeds it in process;
// the image store keeps its blobs in a file instead (package imagestore).
package kv

import (
	"hash/fnv"
	"sync"
)

const shardCount = 256

type shard struct {
	mu sync.RWMutex
	m  map[string][]byte
}

// Store is an in-memory sharded key-value store. The zero value is not
// usable; call NewStore.
type Store struct {
	shards [shardCount]shard
}

// NewStore returns an empty store.
func NewStore() *Store {
	s := &Store{}
	for i := range s.shards {
		s.shards[i].m = make(map[string][]byte)
	}
	return s
}

func (s *Store) shardFor(key string) *shard {
	h := fnv.New32a()
	_, _ = h.Write([]byte(key))
	return &s.shards[h.Sum32()%shardCount]
}

// Get returns a copy of the value for key.
func (s *Store) Get(key string) ([]byte, bool) {
	sh := s.shardFor(key)
	sh.mu.RLock()
	v, ok := sh.m[key]
	sh.mu.RUnlock()
	if !ok {
		return nil, false
	}
	dup := make([]byte, len(v))
	copy(dup, v)
	return dup, true
}

// Has reports whether key exists without copying the value — the hot path
// of the check-before-extract protocol.
func (s *Store) Has(key string) bool {
	sh := s.shardFor(key)
	sh.mu.RLock()
	_, ok := sh.m[key]
	sh.mu.RUnlock()
	return ok
}

// Put stores a copy of value under key, overwriting any previous value.
func (s *Store) Put(key string, value []byte) {
	dup := make([]byte, len(value))
	copy(dup, value)
	sh := s.shardFor(key)
	sh.mu.Lock()
	sh.m[key] = dup
	sh.mu.Unlock()
}

// Len returns the total number of keys.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		s.shards[i].mu.RLock()
		n += len(s.shards[i].m)
		s.shards[i].mu.RUnlock()
	}
	return n
}
