package cache

import (
	"fmt"
	"sync"
	"testing"
)

func TestGetPut(t *testing.T) {
	c := New[int](64)
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", 1, 10)
	c.Put("b", 2, 20)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %v, %v; want 1, true", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 2 || st.Bytes != 30 {
		t.Fatalf("stats = %+v; want 1 hit, 1 miss, 2 entries, 30 bytes", st)
	}
}

func TestPutRefresh(t *testing.T) {
	c := New[int](64)
	c.Put("a", 1, 10)
	c.Put("a", 2, 25)
	if v, _ := c.Get("a"); v != 2 {
		t.Fatalf("refreshed value = %d; want 2", v)
	}
	st := c.Stats()
	if st.Entries != 1 || st.Bytes != 25 {
		t.Fatalf("stats = %+v; want 1 entry, 25 bytes", st)
	}
}

// TestEviction fills one shard past capacity and checks LRU order: the
// least-recently-used key goes first and its bytes are released.
func TestEviction(t *testing.T) {
	c := New[int](numShards) // one slot per shard
	s := c.shardFor("x")
	// Find two keys landing in the same shard as "x".
	var same []string
	for i := 0; len(same) < 2; i++ {
		k := fmt.Sprintf("k%d", i)
		if c.shardFor(k) == s {
			same = append(same, k)
		}
	}
	c.Put(same[0], 1, 100)
	c.Put(same[1], 2, 50) // evicts same[0]
	if _, ok := c.Get(same[0]); ok {
		t.Fatalf("evicted key %q still present", same[0])
	}
	if v, ok := c.Get(same[1]); !ok || v != 2 {
		t.Fatalf("surviving key %q = %v, %v; want 2, true", same[1], v, ok)
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Bytes != 50 {
		t.Fatalf("stats = %+v; want 1 eviction, 50 bytes", st)
	}
}

func TestRemove(t *testing.T) {
	c := New[string](8)
	c.Put("a", "x", 7)
	if !c.Remove("a") {
		t.Fatal("Remove(a) = false; want true")
	}
	if c.Remove("a") {
		t.Fatal("second Remove(a) = true; want false")
	}
	st := c.Stats()
	if st.Removals != 1 || st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("stats = %+v; want 1 removal, 0 entries, 0 bytes", st)
	}
}

// TestNilCache checks the disabled-cache contract: every method is a safe
// no-op on nil, so callers thread a zero size knob straight through.
func TestNilCache(t *testing.T) {
	var c *Cache[int] = New[int](0)
	if c != nil {
		t.Fatal("New(0) should return nil")
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("nil cache hit")
	}
	c.Put("a", 1, 1)
	if c.Remove("a") {
		t.Fatal("nil cache removal")
	}
	if c.Stats() != (Stats{}) { // Entries included
		t.Fatal("nil cache has state")
	}
}

// TestConcurrent hammers all operations from many goroutines; correctness
// here is "no race, no panic, accounting lands at zero after removal".
func TestConcurrent(t *testing.T) {
	c := New[int](256)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				k := fmt.Sprintf("k%d", (w*1000+i)%128)
				c.Put(k, i, int64(i%97))
				c.Get(k)
				if i%17 == 0 {
					c.Remove(k)
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Entries < 0 || st.Bytes < 0 {
		t.Fatalf("negative accounting: %+v", st)
	}
	for i := 0; i < 128; i++ {
		c.Remove(fmt.Sprintf("k%d", i))
	}
	st = c.Stats()
	if st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("after draining: %+v; want 0 entries, 0 bytes", st)
	}
}
