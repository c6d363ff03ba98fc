package bitmapx

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestZeroValueAndNew(t *testing.T) {
	var b Bitmap
	if b.Get(0) || b.Get(12345) {
		t.Fatal("zero bitmap has set bits")
	}
	if b.Count() != 0 {
		t.Fatal("zero bitmap count != 0")
	}
	nb := New(1000)
	if n := len(nb.Snapshot()) * 64; n < 1000 {
		t.Fatalf("New(1000) addresses %d bits", n)
	}
}

func TestSetGetClear(t *testing.T) {
	b := New(0)
	ids := []uint32{0, 1, 63, 64, 65, 1000, 65535, 65536, 1 << 20}
	for _, id := range ids {
		if !b.Set(id) {
			t.Errorf("Set(%d) reported no change on first set", id)
		}
		if b.Set(id) {
			t.Errorf("Set(%d) reported change on second set", id)
		}
		if !b.Get(id) {
			t.Errorf("Get(%d) false after Set", id)
		}
	}
	if b.Count() != len(ids) {
		t.Fatalf("Count = %d, want %d", b.Count(), len(ids))
	}
	for _, id := range ids {
		if !b.Clear(id) {
			t.Errorf("Clear(%d) reported no change", id)
		}
		if b.Clear(id) {
			t.Errorf("Clear(%d) reported change twice", id)
		}
		if b.Get(id) {
			t.Errorf("Get(%d) true after Clear", id)
		}
	}
	if b.Count() != 0 {
		t.Fatalf("Count = %d after clearing all, want 0", b.Count())
	}
}

func TestClearBeyondCapIsNoop(t *testing.T) {
	b := New(10)
	if b.Clear(1 << 25) {
		t.Fatal("Clear of never-grown bit reported a change")
	}
}

func TestNeighborBitsIndependent(t *testing.T) {
	b := New(0)
	b.Set(100)
	b.Set(101)
	b.Clear(100)
	if b.Get(100) {
		t.Fatal("bit 100 still set")
	}
	if !b.Get(101) {
		t.Fatal("clearing bit 100 disturbed bit 101")
	}
}

// Property: a random sequence of sets/clears leaves the bitmap agreeing
// with a map[uint32]bool model.
func TestBitmapMatchesModel(t *testing.T) {
	f := func(ops []uint32) bool {
		b := New(0)
		model := make(map[uint32]bool)
		for _, op := range ops {
			id := op >> 1 % (1 << 18)
			if op&1 == 0 {
				b.Set(id)
				model[id] = true
			} else {
				b.Clear(id)
				delete(model, id)
			}
		}
		for id, want := range model {
			if b.Get(id) != want {
				return false
			}
		}
		count := 0
		for range model {
			count++
		}
		return b.Count() == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSnapshotRestoreRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	b := New(0)
	set := make(map[uint32]bool)
	for i := 0; i < 5000; i++ {
		id := uint32(rng.Intn(1 << 19))
		b.Set(id)
		set[id] = true
	}
	words := b.Snapshot()

	restored := New(0)
	restored.Restore(words)
	if restored.Count() != b.Count() {
		t.Fatalf("restored count %d, want %d", restored.Count(), b.Count())
	}
	for id := range set {
		if !restored.Get(id) {
			t.Fatalf("bit %d lost in roundtrip", id)
		}
	}
}

func TestConcurrentSetClearDisjoint(t *testing.T) {
	b := New(0)
	const perWorker = 20000
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint32(w * perWorker)
			for i := uint32(0); i < perWorker; i++ {
				b.Set(base + i)
			}
			for i := uint32(0); i < perWorker; i += 2 {
				b.Clear(base + i)
			}
		}(w)
	}
	wg.Wait()
	if got, want := b.Count(), workers*perWorker/2; got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
	for w := 0; w < workers; w++ {
		base := uint32(w * perWorker)
		if b.Get(base) {
			t.Fatalf("worker %d: even bit still set", w)
		}
		if !b.Get(base + 1) {
			t.Fatalf("worker %d: odd bit lost", w)
		}
	}
}

// TestConcurrentSameBit hammers a single bit from many goroutines; the
// change-reporting contract means exactly one Set wins per round.
func TestConcurrentSameBit(t *testing.T) {
	b := New(64)
	const rounds = 500
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		wins := make(chan struct{}, 16)
		for w := 0; w < 16; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if b.Set(7) {
					wins <- struct{}{}
				}
			}()
		}
		wg.Wait()
		close(wins)
		n := 0
		for range wins {
			n++
		}
		if n != 1 {
			t.Fatalf("round %d: %d winners, want exactly 1", r, n)
		}
		b.Clear(7)
	}
}

// TestWordsMatchesModel: Get/Count/Range over a materialised Words
// snapshot agree with a map model, across chunk boundaries.
func TestWordsMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := New(0)
	model := make(map[uint32]bool)
	for i := 0; i < 4000; i++ {
		id := uint32(rng.Intn(3 << 16)) // spans multiple 1<<16-bit chunks
		b.Set(id)
		model[id] = true
	}
	w := b.AppendWords(nil)
	if got := w.Count(); got != len(model) {
		t.Fatalf("Words.Count = %d, want %d", got, len(model))
	}
	for id := range model {
		if !w.Get(id) {
			t.Fatalf("Words.Get(%d) = false for a set bit", id)
		}
	}
	if w.Get(uint32(len(w))*64 + 5) {
		t.Fatal("Words.Get beyond length returned true")
	}
	var prev int64 = -1
	seen := 0
	w.Range(func(id uint32) bool {
		if int64(id) <= prev {
			t.Fatalf("Range out of order: %d after %d", id, prev)
		}
		prev = int64(id)
		if !model[id] {
			t.Fatalf("Range visited unset bit %d", id)
		}
		seen++
		return true
	})
	if seen != len(model) {
		t.Fatalf("Range visited %d bits, want %d", seen, len(model))
	}
	// Early termination.
	calls := 0
	w.Range(func(uint32) bool { calls++; return calls < 3 })
	if calls != 3 {
		t.Fatalf("Range ignored early stop: %d calls", calls)
	}
}

// TestAppendWordsReuse: AppendWords into a recycled buffer must equal a
// fresh Snapshot.
func TestAppendWordsReuse(t *testing.T) {
	b := New(0)
	for _, id := range []uint32{0, 63, 64, 100000, 1 << 17} {
		b.Set(id)
	}
	scratch := make(Words, 7) // non-empty garbage to be truncated away
	got := b.AppendWords(scratch[:0])
	want := b.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("AppendWords produced %d words, Snapshot %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("word %d: AppendWords %x, Snapshot %x", i, got[i], want[i])
		}
	}
}

// TestAndMatchesModel: And agrees with per-bit intersection,
// including operands of different lengths (missing words read as 0).
func TestAndMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := New(0)
	c := New(0)
	inA := make(map[uint32]bool)
	inBoth := make(map[uint32]bool)
	for i := 0; i < 3000; i++ {
		id := uint32(rng.Intn(2 << 16))
		a.Set(id)
		inA[id] = true
	}
	for i := 0; i < 3000; i++ {
		// Second bitmap deliberately shorter: ids only in the first chunk.
		id := uint32(rng.Intn(1 << 16))
		c.Set(id)
		if inA[id] {
			inBoth[id] = true
		}
	}
	wa := a.AppendWords(nil)
	wc := c.AppendWords(nil)
	got := And(nil, wa, wc)
	if len(got) != min(len(wa), len(wc)) {
		t.Fatalf("And produced %d words, want %d", len(got), min(len(wa), len(wc)))
	}
	if got.Count() != len(inBoth) {
		t.Fatalf("And count = %d, want %d", got.Count(), len(inBoth))
	}
	for id := range inBoth {
		if !got.Get(id) {
			t.Fatalf("intersection lost bit %d", id)
		}
	}
	// Aliased destination.
	aliased := And(wa, wa, wc)
	if aliased.Count() != len(inBoth) {
		t.Fatalf("aliased And count = %d, want %d", aliased.Count(), len(inBoth))
	}
}

func TestConcurrentGrowAndRead(t *testing.T) {
	b := New(0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for id := uint32(0); ; id += 1000 {
			select {
			case <-stop:
				return
			default:
			}
			b.Set(id)
		}
	}()
	for i := 0; i < 100000; i++ {
		b.Get(uint32(i * 37)) // must never fault mid-growth
	}
	close(stop)
	wg.Wait()
}
