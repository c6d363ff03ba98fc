package inverted

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// newWithCap returns New(n) with every list re-seeded at capacity
// entries, so a few appends force the expansions and migrations under
// test.
func newWithCap(n, capacity int) *Index {
	ix := New(n)
	for i := range ix.lists {
		ix.lists[i].Store(newList(capacity, 0))
	}
	return ix
}

func collect(ix *Index, c int) []uint32 {
	var out []uint32
	ix.Scan(c, func(id uint32) bool {
		out = append(out, id)
		return true
	})
	return out
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero lists")
		}
	}()
	New(0)
}

func TestAppendScanOrder(t *testing.T) {
	ix := newWithCap(4, 8)
	for i := uint32(0); i < 5; i++ {
		if err := ix.Append(2, i); err != nil {
			t.Fatal(err)
		}
	}
	got := collect(ix, 2)
	if len(got) != 5 {
		t.Fatalf("scan returned %v", got)
	}
	for i, id := range got {
		if id != uint32(i) {
			t.Fatalf("insertion order violated: %v", got)
		}
	}
	if n := ix.ListLen(2); n != 5 {
		t.Fatalf("aux position = %d, want 5", n)
	}
	if got := collect(ix, 0); len(got) != 0 {
		t.Fatalf("untouched list non-empty: %v", got)
	}
	if ix.Len() != 5 {
		t.Fatalf("total = %d, want 5", ix.Len())
	}
}

func TestAppendOutOfRange(t *testing.T) {
	ix := newWithCap(2, 8)
	if err := ix.Append(2, 1); err == nil {
		t.Fatal("append to list 2 of 2 succeeded")
	}
	if err := ix.Append(-1, 1); err == nil {
		t.Fatal("append to list -1 succeeded")
	}
}

func TestScanEarlyStop(t *testing.T) {
	ix := newWithCap(1, 8)
	for i := uint32(0); i < 6; i++ {
		if err := ix.Append(0, i); err != nil {
			t.Fatal(err)
		}
	}
	var seen []uint32
	ix.Scan(0, func(id uint32) bool {
		seen = append(seen, id)
		return len(seen) < 3
	})
	if len(seen) != 3 {
		t.Fatalf("early stop scanned %d", len(seen))
	}
}

// TestExpansionPreservesContents drives a list through several doublings
// (Fig. 9) and verifies nothing is lost or reordered.
func TestExpansionPreservesContents(t *testing.T) {
	ix := newWithCap(2, 4) // tiny initial capacity forces many expansions
	const n = 5000
	for i := uint32(0); i < n; i++ {
		if err := ix.Append(1, i); err != nil {
			t.Fatal(err)
		}
	}
	ix.Flush()
	got := collect(ix, 1)
	if len(got) != n {
		t.Fatalf("scan returned %d ids, want %d", len(got), n)
	}
	for i, id := range got {
		if id != uint32(i) {
			t.Fatalf("order violated at %d: %d", i, id)
		}
	}
}

// TestFreshAppendsVisibleDuringMigration verifies the paper's freshness
// guarantee: an ID appended mid-expansion is immediately scannable, before
// the background copy completes.
func TestFreshAppendsVisibleDuringMigration(t *testing.T) {
	ix := newWithCap(1, 4)
	// Fill to capacity: next append triggers expansion.
	for i := uint32(0); i < 4; i++ {
		if err := ix.Append(0, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Append(0, 100); err != nil { // lands in the new segment
		t.Fatal(err)
	}
	// Immediately (no Flush) the new ID must be visible.
	got := collect(ix, 0)
	found := false
	for _, id := range got {
		if id == 100 {
			found = true
		}
	}
	if !found {
		t.Fatalf("freshly appended id invisible during migration: %v", got)
	}
	if len(got) != 5 {
		t.Fatalf("scan returned %v, want all 5 ids", got)
	}
}

// TestConcurrentAppendScan is the paper's central concurrency claim:
// searches scan while real-time indexing appends, lock-free, including
// across expansions. Run with -race.
func TestConcurrentAppendScan(t *testing.T) {
	ix := newWithCap(4, 8)
	const total = 30000
	var produced atomic.Uint32
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // single writer, as per the partition model
		defer wg.Done()
		defer close(done)
		rng := rand.New(rand.NewSource(41))
		for i := uint32(0); i < total; i++ {
			if err := ix.Append(rng.Intn(4), i); err != nil {
				t.Errorf("append: %v", err)
				return
			}
			produced.Store(i + 1)
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				// Invariant: every scanned prefix is fully initialised:
				// ids are strictly less than the produced watermark read
				// *after* the scan (writer publishes id then watermark, so
				// any visible id must be < post-scan watermark + 1... use
				// pre-read lower bound instead: id < produced_after).
				for c := 0; c < 4; c++ {
					ix.Scan(c, func(id uint32) bool {
						if id >= total {
							t.Errorf("garbage id %d scanned", id)
							return false
						}
						return true
					})
				}
				before := produced.Load()
				seen := 0
				for c := 0; c < 4; c++ {
					seen += ix.ListLen(c)
				}
				after := produced.Load()
				// Everything the writer had published before our reads must
				// be visible (publication is monotone)...
				if uint32(seen) < before {
					t.Errorf("scanned %d ids but %d were already produced", seen, before)
					return
				}
				// ...and we can see at most one id the test's watermark has
				// not caught up to yet: the writer commits inside Append
				// first and stores `produced` after it returns, so committed
				// leads produced by at most the single in-flight append.
				if uint32(seen) > after+1 {
					t.Errorf("scanned %d ids but only %d produced", seen, after)
					return
				}
			}
		}()
	}
	wg.Wait()
	ix.Flush()
	seen := 0
	for c := 0; c < 4; c++ {
		seen += len(collect(ix, c))
	}
	if seen != total {
		t.Fatalf("final scan found %d, want %d", seen, total)
	}
}

// TestViewAliasesHeadSegment: with no expansion in flight View returns the
// head segment's committed prefix itself, clipped so that a caller's append
// reallocates instead of writing into the list, and leaves buf alone.
func TestViewAliasesHeadSegment(t *testing.T) {
	ix := newWithCap(1, 8)
	for i := uint32(0); i < 5; i++ {
		if err := ix.Append(0, i); err != nil {
			t.Fatal(err)
		}
	}
	var buf []uint32
	v := ix.View(0, &buf)
	if len(v) != 5 || cap(v) != len(v) {
		t.Fatalf("view len %d cap %d, want 5 and 5", len(v), cap(v))
	}
	if &v[0] != &ix.lists[0].Load().data[0] {
		t.Fatal("view of a single-segment list is a copy, want the segment's array")
	}
	if buf != nil {
		t.Fatal("aliasing view wrote into buf")
	}
	if w := append(v, 99); &w[0] == &v[0] {
		t.Fatal("appending to a view wrote into the list's array")
	}
	if err := ix.Append(0, 5); err != nil {
		t.Fatal(err)
	}
	for i, id := range ix.View(0, &buf) {
		if id != uint32(i) {
			t.Fatalf("entry %d reads %d after a caller's append to an earlier view", i, id)
		}
	}
	if v := ix.View(3, &buf); v != nil {
		t.Fatalf("out-of-range view = %v", v)
	}
}

// TestViewCopiesDuringExpansion holds a list's migration chain open (the
// background copy is marked as running, so none starts) across three
// doublings: View must then copy into buf exactly Scan's sequence, and
// reuse buf's array on the next call.
func TestViewCopiesDuringExpansion(t *testing.T) {
	ix := newWithCap(1, 4)
	ix.migrating[0].Store(true)
	for i := uint32(0); i < 40; i++ {
		if err := ix.Append(0, i); err != nil {
			t.Fatal(err)
		}
	}
	if ix.lists[0].Load().next.Load() == nil {
		t.Fatal("no expansion in flight")
	}
	var buf []uint32
	v := ix.View(0, &buf)
	want := collect(ix, 0)
	if len(v) != len(want) || len(want) != 40 {
		t.Fatalf("view %d ids, scan %d, want 40", len(v), len(want))
	}
	for i := range want {
		if v[i] != want[i] {
			t.Fatalf("entry %d: view %d, scan %d", i, v[i], want[i])
		}
	}
	if &buf[0] != &v[0] {
		t.Fatal("view during expansion did not keep its copy in buf")
	}
	if again := ix.View(0, &buf); &again[0] != &v[0] {
		t.Fatal("second view reallocated a sufficient buf")
	}
}

// TestViewConcurrentAppend: one writer appends 0, 1, 2, ... to a list
// through many expansions while readers take views and scans; every view
// and every scan must be a prefix of that sequence, and a view never
// shorter than the one before. A reader that paired a segment's stale
// length with its successor's tail would skip entries. Run with -race.
func TestViewConcurrentAppend(t *testing.T) {
	ix := newWithCap(1, 2)
	const total = 20000
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := uint32(0); i < total; i++ {
			if err := ix.Append(0, i); err != nil {
				t.Errorf("append: %v", err)
				return
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []uint32
			prev := 0
			for {
				select {
				case <-done:
					return
				default:
				}
				v := ix.View(0, &buf)
				if len(v) < prev {
					t.Errorf("view shrank from %d to %d ids", prev, len(v))
					return
				}
				for i, id := range v {
					if id != uint32(i) {
						t.Errorf("view entry %d reads %d", i, id)
						return
					}
				}
				prev = len(v)
				for i, id := range collect(ix, 0) {
					if id != uint32(i) {
						t.Errorf("scan entry %d reads %d", i, id)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	var buf []uint32
	if n := len(ix.View(0, &buf)); n != total {
		t.Fatalf("final view %d ids, want %d", n, total)
	}
}

// TestMigrationChain forces a second expansion while the first copy may
// still be running (append bursts far beyond one doubling).
func TestMigrationChain(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		ix := newWithCap(1, 2)
		const n = 4096
		for i := uint32(0); i < n; i++ {
			if err := ix.Append(0, i); err != nil {
				t.Fatal(err)
			}
		}
		// Scan before flush: must see all committed ids despite chained
		// migrations.
		got := collect(ix, 0)
		if len(got) != n {
			t.Fatalf("trial %d: pre-flush scan %d ids, want %d", trial, len(got), n)
		}
		ix.Flush()
		got = collect(ix, 0)
		for i, id := range got {
			if id != uint32(i) {
				t.Fatalf("trial %d: order violated after chain", trial)
			}
		}
	}
}

func TestSnapshotRoundtrip(t *testing.T) {
	ix := newWithCap(8, 4)
	rng := rand.New(rand.NewSource(42))
	want := make([][]uint32, 8)
	for i := uint32(0); i < 2000; i++ {
		c := rng.Intn(8)
		if err := ix.Append(c, i); err != nil {
			t.Fatal(err)
		}
		want[c] = append(want[c], i)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	restored, err := ReadFrom(bytes.NewReader(buf.Bytes()), 8)
	if err != nil {
		t.Fatalf("ReadFrom: %v", err)
	}
	if restored.Len() != ix.Len() {
		t.Fatalf("restored %d ids, want %d", restored.Len(), ix.Len())
	}
	for c := 0; c < 8; c++ {
		got := collect(restored, c)
		if len(got) != len(want[c]) {
			t.Fatalf("list %d: %d ids, want %d", c, len(got), len(want[c]))
		}
		for i := range want[c] {
			if got[i] != want[c][i] {
				t.Fatalf("list %d entry %d: got %d want %d", c, i, got[i], want[c][i])
			}
		}
	}
}

func TestReadFromTruncated(t *testing.T) {
	ix := newWithCap(4, 4)
	for i := uint32(0); i < 100; i++ {
		if err := ix.Append(int(i%4), i); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 4, buf.Len() / 3, buf.Len() - 2} {
		if _, err := ReadFrom(bytes.NewReader(buf.Bytes()[:cut]), 4); err == nil {
			t.Errorf("truncated snapshot (%d bytes) accepted", cut)
		}
	}
}

// TestReadFromRejectsMismatch: a stream written for another list count, or
// whose header total disagrees with its lists, is refused.
func TestReadFromRejectsMismatch(t *testing.T) {
	ix := newWithCap(4, 4)
	for i := uint32(0); i < 10; i++ {
		if err := ix.Append(int(i%4), i); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrom(bytes.NewReader(buf.Bytes()), 8); err == nil {
		t.Error("4-list stream loaded into an 8-list index")
	}
	bad := append([]byte(nil), buf.Bytes()...)
	binary.LittleEndian.PutUint32(bad[4:8], 11)
	if _, err := ReadFrom(bytes.NewReader(bad), 4); err == nil {
		t.Error("header total of 11 accepted for 10 ids")
	}
}

// TestAppendAfterReadFrom: a decoded list holds exactly its ids, an empty
// one no storage at all, and appends to either grow the list through the
// expansion protocol without losing an entry.
func TestAppendAfterReadFrom(t *testing.T) {
	ix := newWithCap(3, 4)
	for i := uint32(0); i < 5; i++ {
		if err := ix.Append(int(i%2), i); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadFrom(bytes.NewReader(buf.Bytes()), 3)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]uint32{{0, 2, 4}, {1, 3}, nil}
	for i := uint32(5); i < 300; i++ {
		c := int(i % 3)
		if err := restored.Append(c, i); err != nil {
			t.Fatal(err)
		}
		want[c] = append(want[c], i)
	}
	restored.Flush()
	for c := range want {
		if got := collect(restored, c); !slices.Equal(got, want[c]) {
			t.Fatalf("list %d: got %v, want %v", c, got, want[c])
		}
	}
}

// Property: for any append sequence, Scan returns exactly the appended ids
// per list, in order.
func TestScanMatchesModel(t *testing.T) {
	f := func(ops []uint16) bool {
		ix := newWithCap(4, 2)
		model := make([][]uint32, 4)
		for i, op := range ops {
			c := int(op % 4)
			if err := ix.Append(c, uint32(i)); err != nil {
				return false
			}
			model[c] = append(model[c], uint32(i))
		}
		ix.Flush()
		for c := 0; c < 4; c++ {
			got := collect(ix, c)
			if len(got) != len(model[c]) {
				return false
			}
			for i := range got {
				if got[i] != model[c][i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestAuxPositionMonotone verifies the auxiliary last-position only moves
// forward while appends race with reads.
func TestAuxPositionMonotone(t *testing.T) {
	ix := newWithCap(1, 4)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := uint32(0); i < 10000; i++ {
			if err := ix.Append(0, i); err != nil {
				t.Errorf("append: %v", err)
				return
			}
		}
	}()
	prev := 0
	for {
		select {
		case <-done:
			wg.Wait()
			if final := ix.ListLen(0); final != 10000 {
				t.Fatalf("final aux pos %d, want 10000", final)
			}
			return
		default:
		}
		cur := ix.ListLen(0)
		if cur < prev {
			t.Fatalf("aux position went backwards: %d -> %d", prev, cur)
		}
		prev = cur
		time.Sleep(time.Microsecond)
	}
}
