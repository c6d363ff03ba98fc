package blobfile

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func newFile(t *testing.T) *File {
	t.Helper()
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// read is ReadInto into a fresh buffer, with a miss reported as an error.
func read(s *File, key string) ([]byte, error) {
	b, ok, err := s.ReadInto(nil, key)
	if err == nil && !ok {
		err = fmt.Errorf("%q not found", key)
	}
	return b, err
}

func TestPutGet(t *testing.T) {
	s := newFile(t)
	if err := s.Put("jfs://a", []byte("blob")); err != nil {
		t.Fatal(err)
	}
	if got, err := read(s, "jfs://a"); err != nil || string(got) != "blob" {
		t.Fatalf("ReadInto = %q, %v", got, err)
	}
	if b, ok, err := s.ReadInto(nil, "jfs://b"); ok || err != nil || b != nil {
		t.Fatalf("missing key: %q, ok %v, %v", b, ok, err)
	}
	if !s.Has("jfs://a") || s.Has("jfs://b") {
		t.Fatal("Has wrong")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

// TestKeysNotNormalised: keys are used exactly as given, so two spellings
// of one URL are two keys. Canonical keys are the caller's job.
func TestKeysNotNormalised(t *testing.T) {
	s := newFile(t)
	if err := s.Put("jfs://img/a.jpg", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if s.Has("JFS://img/a.jpg") || s.Has("jfs://img/a.jpg#x") {
		t.Fatal("a variant spelling found the blob")
	}
}

// TestReadIntoReusesBuffer: ReadInto returns the blob as a prefix of the
// caller's buffer while it is large enough and grows it only when it is
// not.
func TestReadIntoReusesBuffer(t *testing.T) {
	s := newFile(t)
	small, large := []byte("small"), bytes.Repeat([]byte("L"), 300)
	if err := s.Put("small", small); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("large", large); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 64)
	got, ok, err := s.ReadInto(buf, "small")
	if err != nil || !ok || !bytes.Equal(got, small) {
		t.Fatalf("ReadInto = %q, %v, %v", got, ok, err)
	}
	if &got[:1][0] != &buf[:1][0] {
		t.Fatal("a large enough buffer was not reused")
	}
	got, ok, err = s.ReadInto(got, "large")
	if err != nil || !ok || !bytes.Equal(got, large) {
		t.Fatalf("ReadInto grown = %d bytes, %v, %v", len(got), ok, err)
	}
	again, ok, err := s.ReadInto(got, "small")
	if err != nil || !ok || !bytes.Equal(again, small) || &again[0] != &got[0] {
		t.Fatalf("ReadInto after growth = %q, %v, %v (reused %v)", again, ok, err, &again[0] == &got[0])
	}
}

func TestReuploadReplaces(t *testing.T) {
	s := newFile(t)
	if err := s.Put("u", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("u", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got, err := read(s, "u"); err != nil || string(got) != "v2" {
		t.Fatalf("ReadInto = %q, %v", got, err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

// Property: the file agrees with a map model under arbitrary sequences of
// puts, overwrites and lookups.
func TestStoreMatchesModel(t *testing.T) {
	type op struct {
		Put   bool
		Key   uint8
		Value []byte
	}
	f := func(ops []op) bool {
		s, err := New()
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		model := map[string][]byte{}
		for _, o := range ops {
			k := fmt.Sprintf("k%d", o.Key%32)
			if o.Put {
				if s.Put(k, o.Value) != nil {
					return false
				}
				model[k] = append([]byte(nil), o.Value...)
				continue
			}
			got, ok, err := s.ReadInto(nil, k)
			want, wok := model[k]
			if err != nil || ok != wok || s.Has(k) != wok || !bytes.Equal(got, want) {
				return false
			}
		}
		return s.Len() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestCopyAtBoundaries: Put copies the caller's bytes and ReadInto hands
// back a buffer of the caller's own, so mutating either after the call
// leaves the stored blob as it was.
func TestCopyAtBoundaries(t *testing.T) {
	s := newFile(t)
	v := []byte("hello")
	if err := s.Put("k", v); err != nil {
		t.Fatal(err)
	}
	v[0] = 'X' // caller mutates its buffer after Put
	got, err := read(s, "k")
	if err != nil || string(got) != "hello" {
		t.Fatalf("Put aliased caller buffer: %q, %v", got, err)
	}
	got[0] = 'Y' // caller mutates the returned buffer
	if again, err := read(s, "k"); err != nil || string(again) != "hello" {
		t.Fatalf("ReadInto returned aliased internal buffer: %q, %v", again, err)
	}
}

// TestRoundTripVariedSizes reads back every blob byte for byte, across
// sizes from empty to several pages, after a second round of uploads has
// replaced half of them.
func TestRoundTripVariedSizes(t *testing.T) {
	s := newFile(t)
	rng := rand.New(rand.NewSource(1))
	sizes := []int{0, 1, 7, 512, 2311, 4096, 4097, 65537}
	want := map[string][]byte{}
	put := func(url string, n int) {
		b := make([]byte, n)
		rng.Read(b)
		if err := s.Put(url, b); err != nil {
			t.Fatal(err)
		}
		want[url] = b
	}
	for i, n := range sizes {
		put(fmt.Sprintf("jfs://img/%d.jpg", i), n)
	}
	for i := 0; i < len(sizes); i += 2 {
		put(fmt.Sprintf("jfs://img/%d.jpg", i), sizes[len(sizes)-1-i])
	}
	if s.Len() != len(sizes) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(sizes))
	}
	for url, w := range want {
		got, err := read(s, url)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, w) {
			t.Fatalf("%s: read back %d bytes differ from the %d put", url, len(got), len(w))
		}
	}
	// The returned buffer is the caller's: scribbling on it does not reach
	// the store.
	got, _ := read(s, "jfs://img/3.jpg")
	got[0] ^= 0xff
	if again, _ := read(s, "jfs://img/3.jpg"); !bytes.Equal(again, want["jfs://img/3.jpg"]) {
		t.Fatal("caller's buffer aliases the store")
	}
}

// TestConcurrentPutGet races writers that re-upload shared URLs against
// readers; every read must return one complete version. Run with -race.
func TestConcurrentPutGet(t *testing.T) {
	s := newFile(t)
	const urls, versions = 16, 20
	blob := func(u, v int) []byte { return bytes.Repeat([]byte{byte(u), byte(v)}, 100+u*37) }
	for u := 0; u < urls; u++ {
		if err := s.Put(fmt.Sprintf("jfs://c/%d", u), blob(u, 0)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for v := 1; v <= versions; v++ {
				for u := w; u < urls; u += 4 {
					if err := s.Put(fmt.Sprintf("jfs://c/%d", u), blob(u, v)); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < versions*urls; i++ {
				u := (i + w) % urls
				got, err := read(s, fmt.Sprintf("jfs://c/%d", u))
				if err != nil {
					errs <- err
					return
				}
				if len(got) == 0 || !bytes.Equal(got, blob(u, int(got[1]))) {
					errs <- fmt.Errorf("url %d: torn read of %d bytes", u, len(got))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentMixedOps: workers put, read back and probe keys of their
// own and of a neighbour at once; no worker loses its own write and the
// key count comes out exact. Run with -race.
func TestConcurrentMixedOps(t *testing.T) {
	s := newFile(t)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := fmt.Sprintf("w%d-k%d", w, i%50)
				if err := s.Put(k, []byte{byte(i)}); err != nil {
					t.Error(err)
					return
				}
				if v, err := read(s, k); err != nil || len(v) != 1 || v[0] != byte(i) {
					t.Errorf("lost own write %q: %v, %v", k, v, err)
					return
				}
				s.Has(fmt.Sprintf("w%d-k%d", (w+1)%workers, i%50))
			}
		}(w)
	}
	wg.Wait()
	if got, want := s.Len(), workers*50; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
}

func TestUseAfterClose(t *testing.T) {
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("jfs://a", []byte("blob")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := read(s, "jfs://a"); !errors.Is(err, ErrClosed) {
		t.Fatalf("ReadInto after Close: err = %v, want ErrClosed", err)
	}
	if err := s.Put("jfs://b", []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after Close: err = %v, want ErrClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestBackingFileUnlinked checks that the store leaves no file in the
// temporary directory, even while it is open.
func TestBackingFileUnlinked(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir)
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put("jfs://a", make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("%d entries left in TMPDIR, first %q", len(ents), ents[0].Name())
	}
}

// TestBlobsStayOffHeap bounds what 4,000 blobs of 2 KiB (8 MB) cost the
// Go heap: only the key map may stay resident.
func TestBlobsStayOffHeap(t *testing.T) {
	s := newFile(t)
	urls := make([]string, 4000)
	for i := range urls {
		urls[i] = fmt.Sprintf("jfs://img.jd.local/p%d/img0.jpg", i)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	blob := make([]byte, 2048)
	for i, u := range urls {
		blob[0], blob[1] = byte(i), byte(i>>8)
		if err := s.Put(u, blob); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 1<<20 {
		t.Fatalf("4000 × 2 KiB blobs grew the heap by %d bytes, want < 1 MiB", grew)
	}
	if got, _ := read(s, urls[3999]); len(got) != 2048 || got[0] != byte(3999&0xff) || got[1] != byte(3999>>8) {
		t.Fatal("last blob did not read back")
	}
}
