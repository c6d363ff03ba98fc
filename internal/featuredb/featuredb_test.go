package featuredb

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"jdvs/internal/blobfile"
	"jdvs/internal/core"
)

var sampleFeature = []float32{0.5, -0.25, 1.0}

func newDB(t *testing.T) *DB {
	t.Helper()
	db, err := New()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// noExtract is an extractor for lookups that must hit.
func noExtract(t *testing.T) func() ([]float32, error) {
	return func() ([]float32, error) {
		t.Error("extract called on a stored URL")
		return nil, errors.New("unexpected extraction")
	}
}

func TestPutGetRoundtrip(t *testing.T) {
	db := newDB(t)
	const url = "jfs://img/p42/0.jpg"
	if err := db.Put(url, sampleFeature); err != nil {
		t.Fatal(err)
	}
	got, reused, err := db.GetOrCompute(url, noExtract(t))
	if err != nil || !reused || !slices.Equal(got, sampleFeature) {
		t.Fatalf("GetOrCompute = %v, reused %v, %v", got, reused, err)
	}
	// Put overwrites: the next lookup reads the new vector.
	if err := db.Put(url, []float32{7}); err != nil {
		t.Fatal(err)
	}
	if got, _, err := db.GetOrCompute(url, noExtract(t)); err != nil || !slices.Equal(got, []float32{7}) {
		t.Fatalf("after overwrite: %v, %v", got, err)
	}
}

// TestGetMissing: a URL never stored reaches the extractor, and keys are
// not normalised here — a variant spelling of a stored URL is another key.
func TestGetMissing(t *testing.T) {
	db := newDB(t)
	if err := db.Put("jfs://img/a.jpg", sampleFeature); err != nil {
		t.Fatal(err)
	}
	for _, url := range []string{"nope", "JFS://img/a.jpg"} {
		calls := 0
		_, reused, err := db.GetOrCompute(url, func() ([]float32, error) {
			calls++
			return []float32{1}, nil
		})
		if err != nil || reused || calls != 1 {
			t.Fatalf("%q: reused %v, %d extractions, %v", url, reused, calls, err)
		}
	}
	if hits, misses := db.Stats(); hits != 0 || misses != 2 {
		t.Fatalf("stats = %d,%d, want 0,2", hits, misses)
	}
}

func TestGetOrComputeCachesAndCounts(t *testing.T) {
	db := newDB(t)
	const url = "jfs://img/p1/0.jpg"
	calls := 0
	extract := func() ([]float32, error) {
		calls++
		return []float32{1, 2, 3}, nil
	}
	f, reused, err := db.GetOrCompute(url, extract)
	if err != nil || reused {
		t.Fatalf("first compute: reused=%v err=%v", reused, err)
	}
	if calls != 1 || len(f) != 3 {
		t.Fatalf("extract calls = %d", calls)
	}
	// Second call: cache hit, no extraction.
	f2, reused, err := db.GetOrCompute(url, extract)
	if err != nil || !reused {
		t.Fatalf("second compute: reused=%v err=%v", reused, err)
	}
	if calls != 1 {
		t.Fatalf("extract re-ran: %d calls", calls)
	}
	if !slices.Equal(f2, []float32{1, 2, 3}) {
		t.Fatalf("cached feature = %v", f2)
	}
	hits, misses := db.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats = %d,%d, want 1,1", hits, misses)
	}
}

func TestGetOrComputeExtractError(t *testing.T) {
	db := newDB(t)
	boom := errors.New("gpu on fire")
	_, _, err := db.GetOrCompute("u", func() ([]float32, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if hits, misses := db.Stats(); hits != 0 || misses != 0 {
		t.Fatalf("a failed extraction was counted: %d,%d", hits, misses)
	}
	// Nothing cached on failure: the next lookup extracts.
	if _, reused, err := db.GetOrCompute("u", func() ([]float32, error) { return []float32{1}, nil }); err != nil || reused {
		t.Fatalf("after a failure: reused %v, %v", reused, err)
	}
}

func TestEmptyFeature(t *testing.T) {
	db := newDB(t)
	if err := db.Put("u", nil); err != nil {
		t.Fatal(err)
	}
	got, reused, err := db.GetOrCompute("u", noExtract(t))
	if err != nil || !reused || len(got) != 0 {
		t.Fatalf("roundtrip = %v, reused %v, %v", got, reused, err)
	}
}

func TestConcurrentGetOrCompute(t *testing.T) {
	db := newDB(t)
	const workers = 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				url := fmt.Sprintf("jfs://img/p%d/0.jpg", i%20)
				f, _, err := db.GetOrCompute(url, func() ([]float32, error) {
					return []float32{float32(i % 20)}, nil
				})
				if err != nil {
					t.Errorf("GetOrCompute: %v", err)
					return
				}
				if len(f) != 1 || f[0] != float32(i%20) {
					t.Errorf("bad feature %v", f)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	hits, misses := db.Stats()
	if hits+misses != workers*200 {
		t.Fatalf("stats don't add up: %d+%d != %d", hits, misses, workers*200)
	}
	if misses < 20 {
		t.Fatalf("misses = %d, want >= 20", misses)
	}
	for i := 0; i < 20; i++ {
		url := fmt.Sprintf("jfs://img/p%d/0.jpg", i)
		if f, reused, err := db.GetOrCompute(url, noExtract(t)); err != nil || !reused || f[0] != float32(i) {
			t.Fatalf("%s: %v, reused %v, %v", url, f, reused, err)
		}
	}
}

// TestCorruptEntry: a stored record that does not decode to exactly one
// feature is an error, not a hit and not a reason to extract again.
func TestCorruptEntry(t *testing.T) {
	db := newDB(t)
	long := append(core.AppendFeature(nil, sampleFeature), 0)
	for url, rec := range map[string][]byte{"garbage": {1, 2}, "trailing": long} {
		if err := db.blobs.Put(url, rec); err != nil {
			t.Fatal(err)
		}
		if _, _, err := db.GetOrCompute(url, noExtract(t)); err == nil {
			t.Fatalf("%s record accepted", url)
		}
	}
}

func TestGetOrComputeAfterClose(t *testing.T) {
	db, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put("u", sampleFeature); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for _, url := range []string{"u", "never-stored"} {
		if _, _, err := db.GetOrCompute(url, noExtract(t)); !errors.Is(err, blobfile.ErrClosed) {
			t.Fatalf("%s after Close: err = %v, want blobfile.ErrClosed", url, err)
		}
	}
}

// TestFeaturesStayOffHeap bounds what 4,000 dim-512 features (8 MiB raw)
// cost the Go heap: only the URL → ref map may stay resident.
func TestFeaturesStayOffHeap(t *testing.T) {
	db := newDB(t)
	urls := make([]string, 4000)
	for i := range urls {
		urls[i] = fmt.Sprintf("jfs://img.jd.local/p%d/img0.jpg", i)
	}
	feature := make([]float32, 512)
	extract := func() ([]float32, error) { return feature, nil }
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i, u := range urls {
		feature[0] = float32(i)
		if _, _, err := db.GetOrCompute(u, extract); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(db)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 1<<20 {
		t.Fatalf("4000 dim-512 features grew the heap by %d bytes, want < 1 MiB", grew)
	}
	if got, _, err := db.GetOrCompute(urls[3999], noExtract(t)); err != nil || len(got) != 512 || got[0] != 3999 {
		t.Fatal("last feature did not read back")
	}
}
