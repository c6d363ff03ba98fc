package forward

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"jdvs/internal/core"
)

func sampleAttrs(i int) Attrs {
	return Attrs{
		ProductID:  uint64(1000 + i),
		Sales:      uint32(i * 3),
		Praise:     uint32(i % 101),
		PriceCents: uint32(100 + i),
		Category:   uint16(i % 7),
		URL:        fmt.Sprintf("jfs://img/p%d/0.jpg", i),
	}
}

func TestAppendGetRoundtrip(t *testing.T) {
	ix := New()
	const n = 100
	for i := 0; i < n; i++ {
		id, err := ix.Append(sampleAttrs(i))
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if id != uint32(i) {
			t.Fatalf("Append %d returned id %d; ids must be sequential", i, id)
		}
	}
	if ix.Len() != n {
		t.Fatalf("Len = %d, want %d", ix.Len(), n)
	}
	for i := 0; i < n; i++ {
		got, ok := ix.Get(uint32(i))
		if !ok {
			t.Fatalf("Get(%d) missing", i)
		}
		if got != sampleAttrs(i) {
			t.Fatalf("Get(%d) = %+v, want %+v", i, got, sampleAttrs(i))
		}
	}
}

func TestGetOutOfRange(t *testing.T) {
	ix := New()
	if _, ok := ix.Get(0); ok {
		t.Fatal("Get on empty index returned ok")
	}
	if _, err := ix.Append(sampleAttrs(1)); err != nil {
		t.Fatal(err)
	}
	if _, ok := ix.Get(1); ok {
		t.Fatal("Get past end returned ok")
	}
	if ix.SetSales(5, 1) {
		t.Fatal("SetSales past end succeeded")
	}
	if ix.SetCategory(5, 1) {
		t.Fatal("SetCategory past end succeeded")
	}
}

func TestNumericUpdates(t *testing.T) {
	ix := New()
	id, err := ix.Append(sampleAttrs(0))
	if err != nil {
		t.Fatal(err)
	}
	if !ix.SetSales(id, 777) || !ix.SetPraise(id, 88) || !ix.SetPrice(id, 999) || !ix.SetCategory(id, 42) {
		t.Fatal("numeric update rejected")
	}
	a, _ := ix.Get(id)
	if a.Sales != 777 || a.Praise != 88 || a.PriceCents != 999 || a.Category != 42 {
		t.Fatalf("updates not applied: %+v", a)
	}
	// The rest of the record is untouched.
	if a.ProductID != sampleAttrs(0).ProductID || a.URL != sampleAttrs(0).URL {
		t.Fatalf("unrelated fields disturbed: %+v", a)
	}
	if !ix.SetProductID(id, 31337) {
		t.Fatal("SetProductID rejected")
	}
	if a, _ = ix.Get(id); a.ProductID != 31337 {
		t.Fatalf("SetProductID not applied: %+v", a)
	}
	if ix.SetProductID(id+1, 1) {
		t.Fatal("SetProductID past end succeeded")
	}
}

func TestURLTooLong(t *testing.T) {
	ix := New()
	if _, err := ix.Append(Attrs{ProductID: 1, URL: strings.Repeat("x", MaxURLLen+1)}); err == nil {
		t.Fatal("oversized URL accepted")
	}
	long := strings.Repeat("y", MaxURLLen)
	id, err := ix.Append(Attrs{ProductID: 2, URL: long})
	if err != nil {
		t.Fatalf("%d-byte URL rejected: %v", MaxURLLen, err)
	}
	if a, _ := ix.Get(id); a.URL != long {
		t.Fatalf("%d-byte URL read back as %d bytes", MaxURLLen, len(a.URL))
	}
}

func TestEmptyURL(t *testing.T) {
	ix := New()
	id, err := ix.Append(Attrs{ProductID: 5})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := ix.Get(id)
	if a.URL != "" {
		t.Fatalf("URL = %q, want empty", a.URL)
	}
}

func TestURLBufferChunkRollover(t *testing.T) {
	ix := New()
	// Each URL is just over a quarter chunk, so three fit per chunk and
	// every fourth rolls over to a fresh one.
	long := strings.Repeat("u", urlChunkSize/4)
	const n = 12
	for i := 0; i < n; i++ {
		url := fmt.Sprintf("%s-%d", long, i)
		if _, err := ix.Append(Attrs{ProductID: uint64(i), URL: url}); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if chunks := len(*ix.urlDir.Load()); chunks < 3 {
		t.Fatalf("%d URL chunks after %d quarter-chunk URLs, want a rollover into at least 3", chunks, n)
	}
	for i := 0; i < n; i++ {
		a, ok := ix.Get(uint32(i))
		if !ok || a.URL != fmt.Sprintf("%s-%d", long, i) {
			t.Fatalf("URL %d corrupted after chunk rollover", i)
		}
	}
}

// TestChunkStorageFootprint: an index holds at most one partly filled
// chunk of records and one of URL bytes beyond what its rows use — no
// fixed per-index floor. The bound is absolute (the 64 KiB the partly
// filled last chunk may take), not a multiple of the chunk constants, so
// growing those constants fails here.
func TestChunkStorageFootprint(t *testing.T) {
	const rows, slack = 2000, 64 << 10
	ix := New()
	urlBytes := 0
	for i := 0; i < rows; i++ {
		a := sampleAttrs(i)
		urlBytes += len(a.URL)
		if _, err := ix.Append(a); err != nil {
			t.Fatal(err)
		}
	}
	recHeld := len(*ix.dir.Load()) * int(unsafe.Sizeof(recordChunk{}))
	if used := rows * int(unsafe.Sizeof(record{})); recHeld > used+slack {
		t.Errorf("record chunks hold %d B for %d B of records, want at most %d B of slack", recHeld, used, slack)
	}
	urlHeld := 0
	for _, c := range *ix.urlDir.Load() {
		urlHeld += len(c.buf)
	}
	if urlHeld > urlBytes+slack {
		t.Errorf("URL chunks hold %d B for %d B of URLs, want at most %d B of slack", urlHeld, urlBytes, slack)
	}
}

func TestChunkBoundaryAppends(t *testing.T) {
	ix := New()
	n := recordsPerChunk + recordsPerChunk/2 // crosses a record-chunk boundary
	for i := 0; i < n; i++ {
		if _, err := ix.Append(sampleAttrs(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, probe := range []int{0, recordsPerChunk - 1, recordsPerChunk, n - 1} {
		got, ok := ix.Get(uint32(probe))
		if !ok || got != sampleAttrs(probe) {
			t.Fatalf("record %d wrong across chunk boundary", probe)
		}
	}
}

// Property: packed URL references decode to exactly what was appended.
func TestURLPackingProperty(t *testing.T) {
	ix := New()
	f := func(raw []string) bool {
		start := ix.Len()
		var want []string
		for _, s := range raw {
			if len(s) > 1024 {
				s = s[:1024]
			}
			want = append(want, s)
			if _, err := ix.Append(Attrs{ProductID: 1, URL: s}); err != nil {
				return false
			}
		}
		for i, s := range want {
			a, ok := ix.Get(uint32(start + i))
			if !ok || a.URL != s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// wideAttrs is sampleAttrs with a URL about 100 bytes long, so appending
// them crosses URL chunk boundaries as well as record chunk boundaries.
func wideAttrs(i int) Attrs {
	a := sampleAttrs(i)
	a.URL = fmt.Sprintf("%s#%080d", a.URL, i)
	return a
}

// TestConcurrentReadsDuringWrites is the paper's core forward-index claim:
// attribute updates are atomic and never conflict with readers. The
// appender starts once every reader is running and grows the index across
// at least 20 record chunk boundaries (and as many URL chunk boundaries),
// so each directory publish happens under concurrent reads. One reader
// reads record Len()-1 each time Len moves, right after its publish: a
// record published before its fields are stored reads as zeros there.
func TestConcurrentReadsDuringWrites(t *testing.T) {
	ix := New()
	const n = 2000
	const grown, nReaders = 21 * recordsPerChunk, 4
	for i := 0; i < n; i++ {
		if _, err := ix.Append(sampleAttrs(i)); err != nil {
			t.Fatal(err)
		}
	}
	recChunks, urlChunks := len(*ix.dir.Load()), len(*ix.urlDir.Load())
	want := func(id uint32) Attrs {
		if id < n {
			return sampleAttrs(int(id))
		}
		return wideAttrs(int(id))
	}
	stop := make(chan struct{})
	appended := make(chan struct{})
	var writers, readersUp sync.WaitGroup
	readersUp.Add(nReaders + 1)
	// Updater: each field is independently atomic, so readers verify
	// per-field sanity: observed values are always ones some writer stored.
	writers.Add(1)
	go func() {
		defer writers.Done()
		rng := rand.New(rand.NewSource(31))
		for {
			select {
			case <-stop:
				return
			default:
			}
			id := uint32(rng.Intn(n))
			v := uint32(rng.Intn(1000)) * 2 // updates store only even values
			ix.SetSales(id, v)
		}
	}()
	// Appender: grows the index concurrently by a fixed number of records.
	writers.Add(1)
	go func() {
		defer writers.Done()
		defer close(appended)
		readersUp.Wait()
		for i := n; i < n+grown; i++ {
			if _, err := ix.Append(wideAttrs(i)); err != nil {
				t.Errorf("append %d: %v", i, err)
				return
			}
		}
	}()
	var readers sync.WaitGroup
	for w := 0; w < nReaders; w++ {
		readers.Add(1)
		go func(w int) {
			defer readers.Done()
			readersUp.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			// Read until the appender is done, and at least 20000 times.
			for i := 0; ; i++ {
				if i >= 20000 {
					select {
					case <-appended:
						return
					default:
					}
				}
				id := uint32(rng.Intn(ix.Len()))
				a, ok := ix.Get(id)
				if !ok {
					continue
				}
				// Sales is either the original seed value or an even
				// updater value — never torn garbage above the ceiling.
				if a.Sales >= 2000 && a.Sales != want(id).Sales {
					t.Errorf("torn sales read: %d", a.Sales)
					return
				}
				if a.URL != want(id).URL || a.ProductID != want(id).ProductID {
					t.Errorf("record %d read %q (product %d) during concurrent append", id, a.URL, a.ProductID)
					return
				}
			}
		}(w)
	}
	// Newest-record reader: appended records are never updated, so the
	// one just published reads exactly as the appender stored it.
	readers.Add(1)
	go func() {
		defer readers.Done()
		readersUp.Done()
		for seen := n; ; {
			select {
			case <-appended:
				return
			default:
			}
			l := ix.Len()
			if l == seen {
				continue
			}
			seen = l
			id := uint32(l - 1)
			if a, ok := ix.Get(id); !ok || a != want(id) {
				t.Errorf("newest record %d read %+v (ok %v), want %+v", id, a, ok, want(id))
				return
			}
		}
	}()
	readers.Wait()
	close(stop)
	writers.Wait()
	if d := len(*ix.dir.Load()) - recChunks; d < 20 {
		t.Errorf("appends crossed %d record chunk boundaries, want at least 20", d)
	}
	if d := len(*ix.urlDir.Load()) - urlChunks; d < 20 {
		t.Errorf("appends crossed %d URL chunk boundaries, want at least 20", d)
	}
}

func TestSnapshotRoundtrip(t *testing.T) {
	ix := New()
	const n = 500
	for i := 0; i < n; i++ {
		if _, err := ix.Append(sampleAttrs(i)); err != nil {
			t.Fatal(err)
		}
	}
	ix.SetSales(42, 999999)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	restored, err := ReadFrom(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadFrom: %v", err)
	}
	if restored.Len() != n {
		t.Fatalf("restored Len = %d, want %d", restored.Len(), n)
	}
	for i := 0; i < n; i++ {
		want, _ := ix.Get(uint32(i))
		got, ok := restored.Get(uint32(i))
		if !ok || got != want {
			t.Fatalf("record %d: got %+v, want %+v", i, got, want)
		}
	}
}

func TestReadFromTruncated(t *testing.T) {
	ix := New()
	for i := 0; i < 10; i++ {
		if _, err := ix.Append(sampleAttrs(i)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 3, 10, buf.Len() / 2, buf.Len() - 1} {
		if _, err := ReadFrom(bytes.NewReader(buf.Bytes()[:cut])); err == nil {
			t.Errorf("truncated snapshot (%d bytes) accepted", cut)
		}
	}
}

// TestConcurrentWritersSerialize checks multiple goroutines appending
// concurrently produce a dense, uncorrupted index (appends are documented
// single-writer per partition, but must stay memory-safe under misuse).
func TestConcurrentAppendSafety(t *testing.T) {
	ix := New()
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := ix.Append(sampleAttrs(w*per + i)); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if ix.Len() != workers*per {
		t.Fatalf("Len = %d, want %d", ix.Len(), workers*per)
	}
	seen := make(map[uint64]int)
	for i := 0; i < ix.Len(); i++ {
		a, ok := ix.Get(uint32(i))
		if !ok {
			t.Fatalf("record %d missing", i)
		}
		seen[a.ProductID]++
	}
	if len(seen) != workers*per {
		t.Fatalf("%d distinct products, want %d", len(seen), workers*per)
	}
}

var _ = core.Attrs{} // keep the core import: Attrs aliases core.Attrs
