package topk

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k=0")
		}
	}()
	New(0)
}

func TestSelectorBasics(t *testing.T) {
	s := New(3)
	if s.k != 3 || len(s.Items()) != 0 {
		t.Fatalf("fresh selector state wrong: k=%d len=%d", s.k, len(s.Items()))
	}
	if _, ok := s.WorstDist(); ok {
		t.Fatal("WorstDist should report not-full")
	}
	s.Push(1, 5)
	s.Push(2, 1)
	s.Push(3, 3)
	if n := len(s.Items()); n != 3 {
		t.Fatalf("selector holds %d after 3 pushes, want k=3", n)
	}
	if w, ok := s.WorstDist(); !ok || w != 5 {
		t.Fatalf("WorstDist = %v,%v, want 5,true", w, ok)
	}
	// A better candidate evicts the worst.
	if !s.Push(4, 2) {
		t.Fatal("better candidate rejected")
	}
	// A worse candidate is rejected.
	if s.Push(5, 100) {
		t.Fatal("worse candidate accepted")
	}
	got := s.Sorted()
	want := []Item{{2, 1}, {4, 2}, {3, 3}}
	if len(got) != len(want) {
		t.Fatalf("Sorted = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sorted = %v, want %v", got, want)
		}
	}
	// Selector is reusable after Sorted and ResetK.
	s.ResetK(3)
	if len(s.Items()) != 0 {
		t.Fatal("selector not drained by ResetK")
	}
	s.Push(9, 1)
	if len(s.Items()) != 1 {
		t.Fatal("selector unusable after Sorted and ResetK")
	}
}

func TestSelectorTieBreaksByID(t *testing.T) {
	s := New(4)
	s.Push(30, 1)
	s.Push(10, 1)
	s.Push(20, 1)
	got := s.Sorted()
	for i, want := range []uint64{10, 20, 30} {
		if got[i].ID != want {
			t.Fatalf("tie-break order wrong: %v", got)
		}
	}
}

// TestSelectorBoundaryTieKeepsSmallestID pins the push-order independence
// the parallel scan relies on: when candidates tie in distance at the k
// boundary, the smallest ID is retained no matter which arrived first.
func TestSelectorBoundaryTieKeepsSmallestID(t *testing.T) {
	for _, order := range [][]uint64{{9, 5}, {5, 9}} {
		s := New(1)
		for _, id := range order {
			s.Push(id, 2)
		}
		got := s.Sorted()
		if len(got) != 1 || got[0].ID != 5 {
			t.Fatalf("push order %v: retained %v, want ID 5", order, got)
		}
	}
}

// TestSelectorMatchesSortOracle compares against sorting the full candidate
// list, across many random workloads.
func TestSelectorMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(20)
		n := rng.Intn(200)
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{ID: uint64(i), Dist: float32(rng.Intn(50))} // duplicates likely
		}
		s := New(k)
		for _, it := range items {
			s.Push(it.ID, it.Dist)
		}
		got := s.Sorted()

		oracle := make([]Item, n)
		copy(oracle, items)
		sortOracle(oracle)
		if len(oracle) > k {
			oracle = oracle[:k]
		}
		if len(got) != len(oracle) {
			t.Fatalf("trial %d: got %d items, want %d", trial, len(got), len(oracle))
		}
		for i := range oracle {
			// Selection is by (Dist, ID), so retained items — including
			// which IDs survive a tie cut at the boundary — must match the
			// oracle exactly, independent of push order.
			if got[i] != oracle[i] {
				t.Fatalf("trial %d item %d: got %v, want %v\ngot:  %v\nwant: %v",
					trial, i, got[i], oracle[i], got, oracle)
			}
		}
	}
}

// Property: results are always sorted and never exceed k.
func TestSelectorResultsSortedProperty(t *testing.T) {
	f := func(dists []float32, kRaw uint8) bool {
		k := int(kRaw%16) + 1
		s := New(k)
		for i, d := range dists {
			s.Push(uint64(i), d)
		}
		got := s.Sorted()
		if len(got) > k {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].Dist < got[i-1].Dist {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// sortOracle orders items by (Dist, ID) with a comparator written apart
// from itemLess, for the tests that check selection and merging against
// sort-everything.
func sortOracle(items []Item) {
	slices.SortFunc(items, func(a, b Item) int {
		return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.ID, b.ID))
	})
}

// lessPtr is the selector's (Dist, ID) order in the shape Merge takes.
func lessPtr(a, b *Item) bool { return itemLess(*a, *b) }

func TestMergeBasics(t *testing.T) {
	a := []Item{{1, 1}, {3, 3}, {5, 5}}
	b := []Item{{2, 2}, {4, 4}, {6, 6}}
	got := Merge(4, lessPtr, a, b)
	want := []uint64{1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("Merge = %v", got)
	}
	for i := range want {
		if got[i].ID != want[i] {
			t.Fatalf("Merge = %v, want ids %v", got, want)
		}
	}
}

func TestMergeEdgeCases(t *testing.T) {
	if got := Merge(0, lessPtr, []Item{{1, 1}}); got != nil {
		t.Errorf("k=0 should merge to nil, got %v", got)
	}
	if got := Merge[Item](5, lessPtr); got != nil {
		t.Errorf("no lists should merge to nil, got %v", got)
	}
	if got := Merge[Item](5, lessPtr, nil, nil); got != nil {
		t.Errorf("empty lists should merge to nil, got %v", got)
	}
	// k larger than total.
	got := Merge(10, lessPtr, []Item{{1, 1}}, []Item{{2, 2}})
	if len(got) != 2 {
		t.Errorf("merge of 2 items with k=10: got %v", got)
	}
}

func TestResetKReconfigures(t *testing.T) {
	s := New(3)
	for i := 0; i < 5; i++ {
		s.Push(uint64(i), float32(i))
	}
	s.ResetK(5)
	if s.k != 5 || len(s.Items()) != 0 {
		t.Fatalf("after ResetK(5): k=%d len=%d", s.k, len(s.Items()))
	}
	for i := 0; i < 10; i++ {
		s.Push(uint64(i), float32(10-i))
	}
	got := s.Sorted()
	if len(got) != 5 {
		t.Fatalf("Sorted len = %d, want 5", len(got))
	}
	for i, it := range got {
		if want := uint64(9 - i); it.ID != want {
			t.Fatalf("Sorted[%d].ID = %d, want %d", i, it.ID, want)
		}
	}
	// Shrinking reuses the backing array and keeps selection correct.
	s.ResetK(2)
	for i := 0; i < 10; i++ {
		s.Push(uint64(i), float32(i))
	}
	got = s.Sorted()
	if len(got) != 2 || got[0].ID != 0 || got[1].ID != 1 {
		t.Fatalf("after shrink: %v", got)
	}
}

func TestResetKPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ResetK(0) did not panic")
		}
	}()
	New(1).ResetK(0)
}

// TestSortedMatchesResults checks the drain of one selector reused across
// queries through ResetK, the pooled per-query pattern, returns the same
// results a fresh selector does.
func TestSortedMatchesResults(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := New(1)
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(10)
		a.ResetK(k)
		b := New(k)
		for i := 0; i < rng.Intn(40); i++ {
			id, d := uint64(rng.Intn(100)), float32(rng.Intn(20))
			a.Push(id, d)
			b.Push(id, d)
		}
		got, want := a.Sorted(), b.Sorted()
		if len(got) != len(want) {
			t.Fatalf("trial %d: len %d vs %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d item %d: %v vs %v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestMergeManyLists: more lists than the inline head buffer handles.
func TestMergeManyLists(t *testing.T) {
	var lists [][]Item
	for i := 0; i < 20; i++ {
		lists = append(lists, []Item{{uint64(i), float32(i)}})
	}
	got := Merge(20, lessPtr, lists...)
	if len(got) != 20 {
		t.Fatalf("wide Merge len = %d", len(got))
	}
	for i := range got {
		if got[i].ID != uint64(i) {
			t.Fatalf("wide Merge[%d] = %v", i, got[i])
		}
	}
}

// TestMergeMatchesSortOracle validates Merge against concatenate-and-sort.
func TestMergeMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		nLists := 1 + rng.Intn(5)
		k := 1 + rng.Intn(15)
		var lists [][]Item
		var all []Item
		id := uint64(0)
		for l := 0; l < nLists; l++ {
			n := rng.Intn(20)
			list := make([]Item, n)
			for i := range list {
				list[i] = Item{ID: id, Dist: float32(rng.Intn(30))}
				id++
			}
			sortOracle(list)
			lists = append(lists, list)
			all = append(all, list...)
		}
		got := Merge(k, lessPtr, lists...)
		sortOracle(all)
		if len(all) > k {
			all = all[:k]
		}
		if len(got) != len(all) {
			t.Fatalf("trial %d: got %d, want %d", trial, len(got), len(all))
		}
		for i := range all {
			if got[i] != all[i] {
				t.Fatalf("trial %d: merge mismatch at %d:\ngot  %v\nwant %v", trial, i, got, all)
			}
		}
	}
}

// TestItemsReadsWithoutDraining: Items exposes the retained set unsorted
// and leaves the selector usable — later pushes still select correctly.
func TestItemsReadsWithoutDraining(t *testing.T) {
	s := New(4)
	for i, d := range []float32{9, 1, 7, 3, 5, 8} {
		s.Push(uint64(i), d)
	}
	got := append([]Item(nil), s.Items()...)
	sortOracle(got)
	want := []Item{{1, 1}, {3, 3}, {4, 5}, {2, 7}}
	if !slices.Equal(got, want) {
		t.Fatalf("Items = %v, want the set %v", got, want)
	}
	s.Push(6, 2) // evicts {2 7}; only a still-valid heap picks the right victim
	if got := s.Sorted(); !slices.Equal(got, []Item{{1, 1}, {6, 2}, {3, 3}, {4, 5}}) {
		t.Fatalf("after Items and one more push: %v", got)
	}
}
