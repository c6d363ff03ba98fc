package kv

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestPutGet(t *testing.T) {
	s := NewStore()
	if _, ok := s.Get("k"); ok {
		t.Fatal("empty store returned a value")
	}
	if s.Has("k") {
		t.Fatal("empty store has key")
	}
	s.Put("k", []byte("v1"))
	got, ok := s.Get("k")
	if !ok || string(got) != "v1" {
		t.Fatalf("Get = %q,%v", got, ok)
	}
	s.Put("k", []byte("v2")) // overwrite
	got, _ = s.Get("k")
	if string(got) != "v2" {
		t.Fatalf("overwrite failed: %q", got)
	}
	if !s.Has("k") {
		t.Fatal("stored key missing")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestCopyAtBoundaries(t *testing.T) {
	s := NewStore()
	v := []byte("hello")
	s.Put("k", v)
	v[0] = 'X' // caller mutates its buffer after Put
	got, _ := s.Get("k")
	if string(got) != "hello" {
		t.Fatalf("Put aliased caller buffer: %q", got)
	}
	got[0] = 'Y' // caller mutates the returned buffer
	again, _ := s.Get("k")
	if string(again) != "hello" {
		t.Fatalf("Get returned aliased internal buffer: %q", again)
	}
}

// Property: the store agrees with a map model under arbitrary op sequences.
func TestStoreMatchesModel(t *testing.T) {
	type op struct {
		Kind  uint8
		Key   uint8
		Value []byte
	}
	f := func(ops []op) bool {
		s := NewStore()
		model := map[string][]byte{}
		for _, o := range ops {
			k := fmt.Sprintf("k%d", o.Key%32)
			switch o.Kind % 3 {
			case 0:
				s.Put(k, o.Value)
				model[k] = append([]byte(nil), o.Value...)
			case 1:
				_, want := model[k]
				if s.Has(k) != want {
					return false
				}
			case 2:
				got, ok := s.Get(k)
				want, wok := model[k]
				if ok != wok || string(got) != string(want) {
					return false
				}
			}
		}
		return s.Len() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentMixedOps(t *testing.T) {
	s := NewStore()
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := fmt.Sprintf("w%d-k%d", w, i%50)
				s.Put(k, []byte{byte(i)})
				if v, ok := s.Get(k); !ok || len(v) != 1 {
					t.Errorf("lost own write %q", k)
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
