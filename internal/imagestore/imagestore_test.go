package imagestore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"
)

func newStore(t *testing.T) *Store {
	t.Helper()
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestPutGet(t *testing.T) {
	s := newStore(t)
	if err := s.Put("jfs://a", []byte("blob")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("jfs://a")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "blob" {
		t.Fatalf("Get = %q", got)
	}
	if !s.Has("jfs://a") || s.Has("jfs://b") {
		t.Fatal("Has wrong")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestGetMissing(t *testing.T) {
	s := newStore(t)
	_, err := s.Get("jfs://missing")
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

// TestReadIntoReusesBuffer: ReadInto returns the blob as a prefix of the
// caller's buffer while it is large enough, grows it only when it is not,
// and reports a miss like Get.
func TestReadIntoReusesBuffer(t *testing.T) {
	s := newStore(t)
	small, large := []byte("small"), bytes.Repeat([]byte("L"), 300)
	if err := s.Put("jfs://small", small); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("jfs://large", large); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 64)
	got, err := s.ReadInto(buf, "jfs://small")
	if err != nil || !bytes.Equal(got, small) {
		t.Fatalf("ReadInto = %q, %v", got, err)
	}
	if &got[:1][0] != &buf[:1][0] {
		t.Fatal("a large enough buffer was not reused")
	}
	got, err = s.ReadInto(got, "jfs://large")
	if err != nil || !bytes.Equal(got, large) {
		t.Fatalf("ReadInto grown = %d bytes, %v", len(got), err)
	}
	again, err := s.ReadInto(got, "jfs://small")
	if err != nil || !bytes.Equal(again, small) || &again[0] != &got[0] {
		t.Fatalf("ReadInto after growth = %q, %v (reused %v)", again, err, &again[0] == &got[0])
	}
	if _, err := s.ReadInto(got, "jfs://missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestEmptyURLRejected(t *testing.T) {
	s := newStore(t)
	if err := s.Put("", []byte("x")); err == nil {
		t.Fatal("empty URL accepted")
	}
}

func TestReuploadReplaces(t *testing.T) {
	s := newStore(t)
	if err := s.Put("u", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("u", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Get("u")
	if string(got) != "v2" {
		t.Fatalf("Get = %q", got)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestVariantURLAddressesSameBlob(t *testing.T) {
	s := newStore(t)
	if err := s.Put("HTTP://IMG.JD.Local:80/a.jpg#x", []byte("v")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("http://img.jd.local/a.jpg")
	if err != nil || string(got) != "v" {
		t.Fatalf("Get = %q, %v", got, err)
	}
}

// TestRoundTripVariedSizes reads back every blob byte for byte, across
// sizes from empty to several pages, after a second round of uploads has
// replaced half of them.
func TestRoundTripVariedSizes(t *testing.T) {
	s := newStore(t)
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
		got, err := s.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, w) {
			t.Fatalf("%s: read back %d bytes differ from the %d put", url, len(got), len(w))
		}
	}
	// The returned buffer is the caller's: scribbling on it does not reach
	// the store.
	got, _ := s.Get("jfs://img/3.jpg")
	got[0] ^= 0xff
	if again, _ := s.Get("jfs://img/3.jpg"); !bytes.Equal(again, want["jfs://img/3.jpg"]) {
		t.Fatal("caller's buffer aliases the store")
	}
}

// TestConcurrentPutGet races writers that re-upload shared URLs against
// readers; every read must return one complete version. Run with -race.
func TestConcurrentPutGet(t *testing.T) {
	s := newStore(t)
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
				got, err := s.Get(fmt.Sprintf("jfs://c/%d", u))
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
	if _, err := s.Get("jfs://a"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after Close: err = %v, want ErrClosed", err)
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
// Go heap: only the URL index may stay resident.
func TestBlobsStayOffHeap(t *testing.T) {
	s := newStore(t)
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
	if got, _ := s.Get(urls[3999]); len(got) != 2048 || got[0] != byte(3999&0xff) || got[1] != byte(3999>>8) {
		t.Fatal("last blob did not read back")
	}
}
