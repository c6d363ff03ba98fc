// Package topk implements bounded top-k selection over (id, distance) pairs
// and k-way merging of partial result lists.
//
// Searchers use a Selector to keep the k nearest images while scanning
// inverted lists; brokers use Merge to combine the sorted pages of their
// partitions into a global top-k.
package topk

import "slices"

// Item is a candidate search result: an opaque 64-bit identifier and its
// distance to the query. Lower distance is better.
type Item struct {
	ID   uint64
	Dist float32
}

// Selector keeps the k smallest-distance items seen so far using a bounded
// binary max-heap: the root is the current worst of the best k, so a new
// candidate either beats the root (replace + sift down) or is rejected in
// O(1). Items are ordered by (Dist, ID), so among equal distances the
// smallest IDs are retained: the selection is a pure function of the
// candidate multiset, independent of push order — which is what lets a
// striped parallel scan reproduce the serial scan exactly even when
// distances tie at the k boundary. The zero Selector is not usable; call
// New.
type Selector struct {
	k    int
	heap []Item // max-heap on Dist
}

// New returns a Selector that retains the k closest items. k must be
// positive.
func New(k int) *Selector {
	if k <= 0 {
		panic("topk: k must be positive")
	}
	return &Selector{k: k, heap: make([]Item, 0, k)}
}

// WorstDist returns the largest distance among retained items, or +Inf-like
// sentinel behaviour: if the selector is not yet full it returns false in
// the second result, meaning every candidate should be pushed.
func (s *Selector) WorstDist() (float32, bool) {
	if len(s.heap) < s.k {
		return 0, false
	}
	return s.heap[0].Dist, true
}

// itemLess orders items by (Dist, ID) ascending — the selector's and
// Merge's shared total order.
func itemLess(a, b Item) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.ID < b.ID
}

// Push offers a candidate. It returns true if the candidate was retained.
func (s *Selector) Push(id uint64, dist float32) bool {
	cand := Item{ID: id, Dist: dist}
	if len(s.heap) < s.k {
		s.heap = append(s.heap, cand)
		s.siftUp(len(s.heap) - 1)
		return true
	}
	if !itemLess(cand, s.heap[0]) {
		return false
	}
	s.heap[0] = cand
	s.siftDown(0)
	return true
}

// ResetK drops all retained items and reconfigures the selector to retain
// the k closest, reusing the existing backing array when it is large
// enough. It lets pooled selectors serve queries of varying k without
// reallocating. k must be positive.
func (s *Selector) ResetK(k int) {
	if k <= 0 {
		panic("topk: k must be positive")
	}
	s.k = k
	if cap(s.heap) < k {
		s.heap = make([]Item, 0, k)
		return
	}
	s.heap = s.heap[:0]
}

// Items returns the retained items in heap order — unspecified, but a pure
// function of the pushes — without sorting or draining: the read for
// callers that re-score every retained item anyway (the ADC over-fetch on
// its way to the exact re-rank). The slice is the selector's own; it is
// invalidated by the next Push or ResetK.
func (s *Selector) Items() []Item { return s.heap }

// Sorted sorts the retained items in place by ascending distance (ties
// broken by ascending ID) and returns the selector's internal slice. It
// performs no allocation, which makes it the right drain for pooled
// per-query selectors. Sorting destroys the heap
// invariant: call ResetK before pushing again, and treat the
// returned slice as invalidated by any subsequent use of the selector.
func (s *Selector) Sorted() []Item {
	Sort(s.heap)
	return s.heap
}

func (s *Selector) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !itemLess(s.heap[parent], s.heap[i]) {
			return
		}
		s.heap[parent], s.heap[i] = s.heap[i], s.heap[parent]
		i = parent
	}
}

func (s *Selector) siftDown(i int) {
	n := len(s.heap)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && itemLess(s.heap[largest], s.heap[l]) {
			largest = l
		}
		if r < n && itemLess(s.heap[largest], s.heap[r]) {
			largest = r
		}
		if largest == i {
			return
		}
		s.heap[i], s.heap[largest] = s.heap[largest], s.heap[i]
		i = largest
	}
}

// Sort orders items by (Dist, ID) ascending, the order Sorted returns.
func Sort(items []Item) {
	slices.SortFunc(items, func(a, b Item) int {
		switch {
		case itemLess(a, b):
			return -1
		case itemLess(b, a):
			return 1
		}
		return 0
	})
}

// Merge combines several partial lists, each already ascending under less
// (a strict total order — e.g. a Selector's Sorted output under (Dist, ID)),
// into one ascending list of at most k elements (nil when there are none).
// Merge does not verify the inputs' order; duplicates are retained —
// deduplication is a ranking concern, not a selection concern.
func Merge[T any](k int, less func(a, b *T) bool, lists ...[]T) []T {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	if k <= 0 || total == 0 {
		return nil
	}
	// Small constant number of lists (searchers per broker): a repeated
	// linear scan over list heads beats heap overhead.
	var headsArr [16]int
	heads := headsArr[:]
	if len(lists) > len(headsArr) {
		heads = make([]int, len(lists))
	}
	out := make([]T, 0, min(k, total))
	for len(out) < k {
		best := -1
		for i, l := range lists {
			if heads[i] >= len(l) {
				continue
			}
			if best == -1 || less(&l[heads[i]], &lists[best][heads[best]]) {
				best = i
			}
		}
		if best == -1 {
			break
		}
		out = append(out, lists[best][heads[best]])
		heads[best]++
	}
	return out
}
