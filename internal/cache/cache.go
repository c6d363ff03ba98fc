// Package cache provides a sharded, byte-accounted LRU used to front the
// expensive stages of the serving path: the blender's feature cache (content
// hash → CNN feature vector) and the broker's result cache (request digest →
// encoded result page). Keys are strings — typically a binary digest — and the
// key space is split across power-of-two shards by FNV-1a hash so concurrent
// lookups from many query workers do not serialise on one mutex. Capacity is
// bounded by entry count per cache (split evenly across shards); the Bytes
// counter tracks the payload footprint for operational visibility rather than
// enforcement, matching how the paper's serving tier reports cache memory.
package cache

import (
	"container/list"
	"hash/fnv"
	"sync"
	"sync/atomic"
)

// numShards is the fixed shard count. 16 keeps per-shard contention low at
// the concurrency levels the closed-loop workloads drive (tens of workers)
// without fragmenting small caches into uselessly tiny LRU lists.
const numShards = 16

// entry is one cached value with its accounting cost.
type entry[V any] struct {
	key   string
	value V
	bytes int64
}

// shard is one independently locked LRU segment.
type shard[V any] struct {
	mu    sync.Mutex
	ll    *list.List // front = most recently used
	items map[string]*list.Element
	cap   int
}

// Cache is a sharded LRU keyed by string. The zero value is not usable; use
// New. A nil *Cache is a valid no-op cache: Get always misses and Put is
// dropped, so callers can leave caching disabled without branching.
type Cache[V any] struct {
	shards    [numShards]shard[V]
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	removals  atomic.Int64
	bytes     atomic.Int64
	entries   atomic.Int64
}

// Stats is a point-in-time snapshot of a cache's counters.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"` // capacity evictions (LRU pressure)
	Removals  int64 `json:"removals"`  // explicit Remove calls (e.g. staleness)
	Entries   int64 `json:"entries"`
	Bytes     int64 `json:"bytes"`
}

// New builds a cache holding at most capacity entries across all shards.
// capacity <= 0 returns nil — the no-op cache — so a zero-valued size knob
// disables caching end to end.
func New[V any](capacity int) *Cache[V] {
	if capacity <= 0 {
		return nil
	}
	c := &Cache[V]{}
	per := (capacity + numShards - 1) / numShards
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i].ll = list.New()
		c.shards[i].items = make(map[string]*list.Element)
		c.shards[i].cap = per
	}
	return c
}

// shardFor picks the shard for key by FNV-1a.
func (c *Cache[V]) shardFor(key string) *shard[V] {
	h := fnv.New32a()
	h.Write([]byte(key))
	return &c.shards[h.Sum32()&(numShards-1)]
}

// Get returns the cached value for key, marking it most recently used.
func (c *Cache[V]) Get(key string) (V, bool) {
	var zero V
	if c == nil {
		return zero, false
	}
	s := c.shardFor(key)
	s.mu.Lock()
	el, ok := s.items[key]
	if ok {
		s.ll.MoveToFront(el)
		v := el.Value.(*entry[V]).value
		s.mu.Unlock()
		c.hits.Add(1)
		return v, true
	}
	s.mu.Unlock()
	c.misses.Add(1)
	return zero, false
}

// Put inserts or refreshes key with the given payload cost in bytes,
// evicting from the tail of the shard's LRU list if the shard is full.
func (c *Cache[V]) Put(key string, value V, bytes int64) {
	if c == nil {
		return
	}
	s := c.shardFor(key)
	s.mu.Lock()
	if el, ok := s.items[key]; ok {
		e := el.Value.(*entry[V])
		c.bytes.Add(bytes - e.bytes)
		e.value, e.bytes = value, bytes
		s.ll.MoveToFront(el)
		s.mu.Unlock()
		return
	}
	var evicted *entry[V]
	if s.ll.Len() >= s.cap {
		if back := s.ll.Back(); back != nil {
			evicted = back.Value.(*entry[V])
			delete(s.items, evicted.key)
			s.ll.Remove(back)
		}
	}
	s.items[key] = s.ll.PushFront(&entry[V]{key: key, value: value, bytes: bytes})
	s.mu.Unlock()
	if evicted != nil {
		c.evictions.Add(1)
		c.bytes.Add(-evicted.bytes)
		c.entries.Add(-1)
	}
	c.bytes.Add(bytes)
	c.entries.Add(1)
}

// Remove drops key if present, reporting whether it was. Explicit removals
// (staleness invalidation) are counted separately from capacity evictions.
func (c *Cache[V]) Remove(key string) bool {
	if c == nil {
		return false
	}
	s := c.shardFor(key)
	s.mu.Lock()
	el, ok := s.items[key]
	var freed int64
	if ok {
		e := el.Value.(*entry[V])
		freed = e.bytes
		delete(s.items, key)
		s.ll.Remove(el)
	}
	s.mu.Unlock()
	if ok {
		c.removals.Add(1)
		c.bytes.Add(-freed)
		c.entries.Add(-1)
	}
	return ok
}

// Stats snapshots the counters. Safe on a nil cache (all zeros).
func (c *Cache[V]) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Removals:  c.removals.Load(),
		Entries:   c.entries.Load(),
		Bytes:     c.bytes.Load(),
	}
}
