package frontend

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"jdvs/internal/rpc"
	"jdvs/internal/search"
)

// fakeBlender is a minimal MethodQuery/MethodSearch server for frontend
// tests: it tags responses with its own name so round-robin is observable.
type fakeBlender struct {
	srv  *rpc.Server
	name string
	mu   sync.Mutex
	hits int
	fail bool
}

func newFakeBlender(t *testing.T, name string) *fakeBlender {
	t.Helper()
	f := &fakeBlender{name: name}
	f.srv = rpc.NewServer()
	handler := func(payload []byte) ([]byte, error) {
		f.mu.Lock()
		defer f.mu.Unlock()
		if f.fail {
			return nil, errors.New("blender rejects")
		}
		f.hits++
		return []byte(f.name), nil
	}
	f.srv.Handle(search.MethodQuery, handler)
	f.srv.Handle(search.MethodSearch, handler)
	f.srv.Handle(search.MethodPing, func([]byte) ([]byte, error) { return nil, nil })
	if _, err := f.srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.srv.Close)
	return f
}

func (f *fakeBlender) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.hits
}

func (f *fakeBlender) setFail(v bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fail = v
}

func call(t *testing.T, addr string, method uint16) (string, error) {
	t.Helper()
	c, err := rpc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	raw, err := c.Call(context.Background(), method, []byte("q"))
	return string(raw), err
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("no blenders accepted")
	}
	if _, err := New(Config{Blenders: []string{"127.0.0.1:1"}}); err == nil {
		t.Fatal("dial to dead blender succeeded")
	}
}

func TestRoundRobinSpreadsLoad(t *testing.T) {
	b1 := newFakeBlender(t, "b1")
	b2 := newFakeBlender(t, "b2")
	f, err := New(Config{Blenders: []string{b1.srv.Addr(), b2.srv.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const n = 40
	for i := 0; i < n; i++ {
		if _, err := call(t, f.Addr(), search.MethodQuery); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	c1, c2 := b1.count(), b2.count()
	if c1+c2 != n {
		t.Fatalf("counts %d+%d != %d", c1, c2, n)
	}
	if c1 == 0 || c2 == 0 {
		t.Fatalf("round robin skipped a blender: %d/%d", c1, c2)
	}
}

// TestRoundRobinCursorNearWrap: queries keep alternating blenders while
// the round-robin cursor wraps past math.MaxUint64.
func TestRoundRobinCursorNearWrap(t *testing.T) {
	b1 := newFakeBlender(t, "b1")
	b2 := newFakeBlender(t, "b2")
	f, err := New(Config{Blenders: []string{b1.srv.Addr(), b2.srv.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.next.Store(math.MaxUint64 - 3)
	const n = 8
	for i := 0; i < n; i++ {
		if _, err := call(t, f.Addr(), search.MethodQuery); err != nil {
			t.Fatalf("query %d across cursor wrap: %v", i, err)
		}
	}
	if c1, c2 := b1.count(), b2.count(); c1 != n/2 || c2 != n/2 {
		t.Fatalf("blender counts %d/%d across cursor wrap, want %d each", c1, c2, n/2)
	}
}

// TestFailoverOnBlenderDeath: a dead blender's share flows to survivors.
func TestFailoverOnBlenderDeath(t *testing.T) {
	b1 := newFakeBlender(t, "b1")
	b2 := newFakeBlender(t, "b2")
	f, err := New(Config{Blenders: []string{b1.srv.Addr(), b2.srv.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b1.srv.Close()
	for i := 0; i < 10; i++ {
		got, err := call(t, f.Addr(), search.MethodQuery)
		if err != nil {
			t.Fatalf("query %d failed after blender death: %v", i, err)
		}
		if got != "b2" {
			t.Fatalf("query %d answered by %q", i, got)
		}
	}
	// Stats record retries.
	c, err := rpc.Dial(f.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	raw, err := c.Call(context.Background(), search.MethodStats, nil)
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.Retries == 0 {
		t.Fatalf("stats = %+v, want retries > 0", st)
	}
}

// TestRemoteErrorNotRetried: a blender that rejects the request (bad
// query) must not trigger failover — the rejection is authoritative.
func TestRemoteErrorNotRetried(t *testing.T) {
	b1 := newFakeBlender(t, "b1")
	b2 := newFakeBlender(t, "b2")
	b1.setFail(true)
	b2.setFail(true)
	f, err := New(Config{Blenders: []string{b1.srv.Addr(), b2.srv.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, err = call(t, f.Addr(), search.MethodQuery)
	var re *rpc.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	// The blender's rejection is surfaced (nested once by the proxy hop),
	// not converted into an "all blenders failed" failover error.
	if !strings.Contains(re.Msg, "blender rejects") {
		t.Fatalf("unexpected remote error %q", re.Msg)
	}
}

func TestAllBlendersDead(t *testing.T) {
	b1 := newFakeBlender(t, "b1")
	f, err := New(Config{Blenders: []string{b1.srv.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b1.srv.Close()
	if _, err := call(t, f.Addr(), search.MethodQuery); err == nil {
		t.Fatal("query succeeded with all blenders dead")
	}
}
