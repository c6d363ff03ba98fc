package rpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

const (
	methodEcho uint16 = 1
	methodFail uint16 = 2
	methodSlow uint16 = 3
)

func startEchoServer(t *testing.T) (*Server, string) {
	t.Helper()
	s := NewServer()
	s.Handle(methodEcho, func(p []byte) ([]byte, error) { return p, nil })
	s.Handle(methodFail, func(p []byte) ([]byte, error) { return nil, errors.New("handler says no") })
	s.Handle(methodSlow, func(p []byte) ([]byte, error) {
		time.Sleep(200 * time.Millisecond)
		return p, nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(s.Close)
	return s, addr
}

func TestCallEcho(t *testing.T) {
	_, addr := startEchoServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Call(context.Background(), methodEcho, []byte("hello"))
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if string(resp) != "hello" {
		t.Fatalf("echo = %q", resp)
	}
	// Empty payload.
	resp, err = c.Call(context.Background(), methodEcho, nil)
	if err != nil || len(resp) != 0 {
		t.Fatalf("empty echo = %q, %v", resp, err)
	}
}

func TestRemoteError(t *testing.T) {
	_, addr := startEchoServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Call(context.Background(), methodFail, nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("error type %T: %v", err, err)
	}
	if re.Msg != "handler says no" || re.Method != methodFail {
		t.Fatalf("remote error = %+v", re)
	}
	// The connection survives handler errors.
	if _, err := c.Call(context.Background(), methodEcho, []byte("still alive")); err != nil {
		t.Fatalf("connection dead after remote error: %v", err)
	}
}

func TestUnknownMethod(t *testing.T) {
	_, addr := startEchoServer(t)
	c, _ := Dial(addr)
	defer c.Close()
	_, err := c.Call(context.Background(), 999, nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("unknown method error = %v", err)
	}
}

func TestConcurrentCallsMultiplex(t *testing.T) {
	_, addr := startEchoServer(t)
	c, _ := Dial(addr)
	defer c.Close()
	const workers, per = 16, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				want := fmt.Sprintf("w%d-%d", w, i)
				resp, err := c.Call(context.Background(), methodEcho, []byte(want))
				if err != nil {
					t.Errorf("call: %v", err)
					return
				}
				if string(resp) != want {
					t.Errorf("cross-wired response: got %q want %q", resp, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestSlowCallDoesNotBlockFast: responses multiplex out of order.
func TestSlowCallDoesNotBlockFast(t *testing.T) {
	_, addr := startEchoServer(t)
	c, _ := Dial(addr)
	defer c.Close()
	slowDone := make(chan struct{})
	go func() {
		defer close(slowDone)
		if _, err := c.Call(context.Background(), methodSlow, []byte("slow")); err != nil {
			t.Errorf("slow call: %v", err)
		}
	}()
	time.Sleep(10 * time.Millisecond) // let the slow call get in first
	start := time.Now()
	if _, err := c.Call(context.Background(), methodEcho, []byte("fast")); err != nil {
		t.Fatalf("fast call: %v", err)
	}
	if el := time.Since(start); el > 150*time.Millisecond {
		t.Fatalf("fast call waited %s behind slow call", el)
	}
	<-slowDone
}

func TestContextCancellation(t *testing.T) {
	_, addr := startEchoServer(t)
	c, _ := Dial(addr)
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := c.Call(ctx, methodSlow, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled call error = %v", err)
	}
	// Late response for the abandoned ID must not poison later calls.
	time.Sleep(250 * time.Millisecond)
	if _, err := c.Call(context.Background(), methodEcho, []byte("ok")); err != nil {
		t.Fatalf("connection unusable after cancellation: %v", err)
	}
}

// TestCancelRacingReplyLeavesSlotEmpty: calls whose deadline expires
// about when the response lands must hand their pooled reply slot back
// empty. A slot returned still holding its reply would answer some later
// Call with another request's payload.
func TestCancelRacingReplyLeavesSlotEmpty(t *testing.T) {
	_, addr := startEchoServer(t)
	c, _ := Dial(addr)
	defer c.Close()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				want := fmt.Sprintf("w%d-%d", w, i)
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i%40)*time.Microsecond)
				resp, err := c.Call(ctx, methodEcho, []byte(want))
				cancel()
				if err == nil && string(resp) != want {
					t.Errorf("call %s answered with %q", want, resp)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestCallReusesReplySlot: Call borrows its one-reply channel from
// replySlots and puts it back, so a steady stream of calls allocates only
// its frames. A slot that is never returned costs a fresh channel per
// call.
func TestCallReusesReplySlot(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of Puts under the race detector")
	}
	_, addr := startEchoServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payload := []byte("ping")
	call := func() {
		if _, err := c.Call(context.Background(), methodEcho, payload); err != nil {
			t.Fatal(err)
		}
	}
	call() // warm the pool
	n := testing.AllocsPerRun(500, call)
	if n > 3 {
		t.Fatalf("%.2f allocations per call, want at most 3", n)
	}
}

// workerGoroutines counts the server's handler workers, busy or parked.
func workerGoroutines() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "rpc.(*Server).worker(")
}

// TestIdleWorkersBounded: a burst of concurrent requests gets a worker
// each, and once it drains at most maxIdleWorkers stay parked; Close
// reaps those.
func TestIdleWorkersBounded(t *testing.T) {
	const burst = 4 * maxIdleWorkers
	s := NewServer()
	entered := make(chan struct{}, burst)
	release := make(chan struct{})
	s.Handle(methodSlow, func(p []byte) ([]byte, error) {
		entered <- struct{}{}
		<-release
		return p, nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, _ := Dial(addr)
	defer c.Close()
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Call(context.Background(), methodSlow, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	for i := 0; i < burst; i++ {
		<-entered
	}
	if n := workerGoroutines(); n != burst {
		t.Fatalf("%d workers for %d concurrent requests", n, burst)
	}
	close(release)
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for workerGoroutines() != maxIdleWorkers {
		if time.Now().After(deadline) {
			t.Fatalf("%d workers left after the burst, want %d parked", workerGoroutines(), maxIdleWorkers)
		}
		time.Sleep(time.Millisecond)
	}
	s.Close()
	if n := workerGoroutines(); n != 0 {
		t.Fatalf("%d workers survived Close", n)
	}
}

func TestServerCloseFailsInflight(t *testing.T) {
	s, addr := startEchoServer(t)
	c, _ := Dial(addr)
	defer c.Close()
	errCh := make(chan error, 1)
	go func() {
		_, err := c.Call(context.Background(), methodSlow, nil)
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	s.Close()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("in-flight call survived server close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight call hung after server close")
	}
	// Subsequent calls fail fast.
	if _, err := c.Call(context.Background(), methodEcho, nil); err == nil {
		t.Fatal("call succeeded on dead connection")
	}
}

func TestClientCloseFailsPending(t *testing.T) {
	_, addr := startEchoServer(t)
	c, _ := Dial(addr)
	errCh := make(chan error, 1)
	go func() {
		_, err := c.Call(context.Background(), methodSlow, nil)
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	c.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("pending call error = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending call hung after client close")
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

// TestMalformedFrameDropsConnection: a garbage length prefix must not
// crash the server; the offending connection is dropped, others live on.
func TestMalformedFrame(t *testing.T) {
	_, addr := startEchoServer(t)

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	// Oversized frame length.
	var evil [4]byte
	binary.LittleEndian.PutUint32(evil[:], MaxFrame+1)
	if _, err := raw.Write(evil[:]); err != nil {
		t.Fatal(err)
	}
	// A healthy client still works.
	c, _ := Dial(addr)
	defer c.Close()
	if _, err := c.Call(context.Background(), methodEcho, []byte("ok")); err != nil {
		t.Fatalf("healthy client starved by malformed peer: %v", err)
	}
}

// TestShortFrame: a frame shorter than the request header drops the
// connection without panicking.
func TestShortFrame(t *testing.T) {
	_, addr := startEchoServer(t)
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	var buf bytes.Buffer
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], 3) // < reqHeader
	buf.Write(lenBuf[:])
	buf.Write([]byte{1, 2, 3})
	if _, err := raw.Write(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	// Server must close the connection: the next read returns EOF.
	_ = raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	one := make([]byte, 1)
	if _, err := raw.Read(one); err == nil {
		t.Fatal("server kept a connection after malformed frame")
	}
}

func TestPool(t *testing.T) {
	_, addr := startEchoServer(t)
	p, err := DialPool(addr, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 30; i++ {
		want := fmt.Sprintf("req-%d", i)
		resp, err := p.Call(context.Background(), methodEcho, []byte(want))
		if err != nil || string(resp) != want {
			t.Fatalf("pool call %d: %q, %v", i, resp, err)
		}
	}
}

func TestPoolDialFailureCleansUp(t *testing.T) {
	if _, err := DialPool("127.0.0.1:1", 3); err == nil {
		t.Fatal("pool dial to closed port succeeded")
	}
}

func TestServerDoubleClose(t *testing.T) {
	s, _ := startEchoServer(t)
	s.Close()
	s.Close() // must not panic or deadlock
}
