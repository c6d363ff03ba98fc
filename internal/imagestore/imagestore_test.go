package imagestore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"jdvs/internal/blobfile"
)

// The storage mechanism itself is tested in package blobfile; these tests
// cover what the image store adds (canonical URL keys, the empty-URL check
// and the typed miss, which a closed store must not report) and check the
// blob round trip end to end through the store's own API.

func newStore(t *testing.T) *Store {
	t.Helper()
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestGetMissing(t *testing.T) {
	s := newStore(t)
	if _, err := s.Get("jfs://missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get: err = %v, want ErrNotFound", err)
	}
	if _, err := s.ReadInto(make([]byte, 8), "jfs://missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ReadInto: err = %v, want ErrNotFound", err)
	}
}

func TestEmptyURLRejected(t *testing.T) {
	s := newStore(t)
	if err := s.Put("", []byte("x")); err == nil {
		t.Fatal("empty URL accepted")
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

// TestPutGet: Get and Len answer for canonical keys too, and a URL never
// uploaded is ErrNotFound.
func TestPutGet(t *testing.T) {
	s := newStore(t)
	if err := s.Put("jfs://img/a.jpg#v2", []byte("blob")); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get("JFS://img/a.jpg"); err != nil || string(got) != "blob" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if _, err := s.Get("jfs://img/a.jpg"); err != nil {
		t.Fatalf("Get canonical: %v", err)
	}
	if _, err := s.Get("jfs://img/b.jpg"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get missing = %v, want ErrNotFound", err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

// TestUseAfterClose: a closed store reports blobfile.ErrClosed, not a
// miss.
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
	for _, url := range []string{"jfs://a", "jfs://never-stored"} {
		if _, err := s.Get(url); !errors.Is(err, blobfile.ErrClosed) || errors.Is(err, ErrNotFound) {
			t.Fatalf("Get(%s) after Close: err = %v, want blobfile.ErrClosed", url, err)
		}
	}
	if err := s.Put("jfs://b", []byte("x")); !errors.Is(err, blobfile.ErrClosed) {
		t.Fatalf("Put after Close: err = %v, want blobfile.ErrClosed", err)
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
