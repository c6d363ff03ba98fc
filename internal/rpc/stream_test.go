package rpc

import (
	"bytes"
	"context"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

var testMethods = StreamMethods{Begin: 10, Chunk: 11, Commit: 12, Abort: 13}

// testSink records everything the StreamServer feeds it.
type testSink struct {
	mu        sync.Mutex
	buf       bytes.Buffer
	committed int
	aborted   int
}

func (k *testSink) Write(p []byte) (int, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.buf.Write(p)
}

func (k *testSink) Commit() error {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.committed++
	return nil
}

func (k *testSink) Abort() {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.aborted++
}

func (k *testSink) state() (data []byte, committed, aborted int) {
	k.mu.Lock()
	defer k.mu.Unlock()
	return append([]byte(nil), k.buf.Bytes()...), k.committed, k.aborted
}

// streamFixture runs a Server with a StreamServer whose sinks are recorded.
type streamFixture struct {
	srv  *Server
	ss   *StreamServer
	addr string

	mu    sync.Mutex
	sinks []*testSink
}

func newStreamFixture(t *testing.T, idle time.Duration, maxSessions int) *streamFixture {
	t.Helper()
	f := &streamFixture{srv: NewServer()}
	f.ss = NewStreamServer(func() (StreamSink, error) {
		k := &testSink{}
		f.mu.Lock()
		f.sinks = append(f.sinks, k)
		f.mu.Unlock()
		return k, nil
	}, idle, maxSessions)
	f.ss.Register(f.srv, testMethods)
	addr, err := f.srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f.addr = addr
	t.Cleanup(func() {
		f.ss.Close()
		f.srv.Close()
	})
	return f
}

func (f *streamFixture) sink(t *testing.T, i int) *testSink {
	t.Helper()
	f.mu.Lock()
	defer f.mu.Unlock()
	if i >= len(f.sinks) {
		t.Fatalf("sink %d never opened (have %d)", i, len(f.sinks))
	}
	return f.sinks[i]
}

func TestStreamChunkCodec(t *testing.T) {
	data := []byte("the quick brown fox")
	p := EncodeStreamChunk(7, 42, data)
	session, seq, got, err := DecodeStreamChunk(p)
	if err != nil {
		t.Fatal(err)
	}
	if session != 7 || seq != 42 || !bytes.Equal(got, data) {
		t.Fatalf("decoded (%d, %d, %q)", session, seq, got)
	}
	// Corrupt one data byte: the checksum must catch it.
	p[len(p)-1] ^= 0xff
	if _, _, _, err := DecodeStreamChunk(p); err == nil {
		t.Fatal("corrupt chunk decoded cleanly")
	}
	if _, _, _, err := DecodeStreamChunk([]byte("short")); err == nil {
		t.Fatal("truncated chunk decoded cleanly")
	}
}

func TestStreamCommitCodec(t *testing.T) {
	p := EncodeStreamCommit(1, 2, 3, 4)
	session, chunks, total, sum, err := DecodeStreamCommit(p)
	if err != nil {
		t.Fatal(err)
	}
	if session != 1 || chunks != 2 || total != 3 || sum != 4 {
		t.Fatalf("decoded (%d, %d, %d, %d)", session, chunks, total, sum)
	}
	if _, _, _, _, err := DecodeStreamCommit(p[:10]); err == nil {
		t.Fatal("truncated commit decoded cleanly")
	}
}

// FuzzStreamPayloads: the session, chunk and commit decoders never panic
// on arbitrary bytes; whatever one accepts re-encodes to exactly its
// input; and an accepted chunk's data is the input's tail itself, returned
// without allocating.
func FuzzStreamPayloads(f *testing.F) {
	chunk := EncodeStreamChunk(7, 42, []byte("the quick brown fox")) // TestStreamChunkCodec's chunk
	f.Add(chunk)
	f.Add(chunk[:len(chunk)-1])
	f.Add(EncodeStreamChunk(1, 0, nil))
	f.Add(EncodeStreamCommit(1, 2, 3, 4)) // TestStreamCommitCodec's commit
	f.Add(EncodeStreamSession(99))
	f.Add([]byte("short"))
	f.Fuzz(func(t *testing.T, p []byte) {
		if id, err := DecodeStreamSession(p); err == nil && !bytes.Equal(EncodeStreamSession(id), p) {
			t.Fatalf("session %d re-encodes differently from %x", id, p)
		}
		if session, chunks, total, sum, err := DecodeStreamCommit(p); err == nil &&
			!bytes.Equal(EncodeStreamCommit(session, chunks, total, sum), p) {
			t.Fatalf("commit re-encodes differently from %x", p)
		}
		session, seq, data, err := DecodeStreamChunk(p)
		if err != nil {
			return
		}
		if len(data) != len(p)-chunkHeaderLen || len(data) > 0 && &data[0] != &p[chunkHeaderLen] {
			t.Fatal("chunk data does not alias the payload's tail")
		}
		if !bytes.Equal(EncodeStreamChunk(session, seq, data), p) {
			t.Fatalf("chunk re-encodes differently from %x", p)
		}
		if n := testing.AllocsPerRun(1, func() { _, _, _, _ = DecodeStreamChunk(p) }); n != 0 {
			t.Fatalf("decoding an accepted chunk allocated %.0f times", n)
		}
	})
}

// TestStreamSenderSingleChunk: a stream that fits in one chunk is a
// one-chunk session, and an empty stream a zero-chunk one — both commit.
func TestStreamSenderSingleChunk(t *testing.T) {
	f := newStreamFixture(t, 0, 0)
	c, err := Dial(f.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i, payload := range []string{"small payload", ""} {
		s := NewStreamSender(context.Background(), c, testMethods, 1024)
		if _, err := s.Write([]byte(payload)); err != nil {
			t.Fatal(err)
		}
		if err := s.Finish(); err != nil {
			t.Fatal(err)
		}
		data, committed, aborted := f.sink(t, i).state()
		if string(data) != payload || committed != 1 || aborted != 0 {
			t.Fatalf("sink got %q, committed=%d aborted=%d", data, committed, aborted)
		}
	}
	if n := f.ss.Sessions(); n != 0 {
		t.Fatalf("%d sessions left after commit", n)
	}
}

// TestStreamRoundTripMultiChunk pushes a payload through many tiny chunks
// and checks the sink reassembles it byte-identically.
func TestStreamRoundTripMultiChunk(t *testing.T) {
	f := newStreamFixture(t, 0, 0)
	c, err := Dial(f.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rng := rand.New(rand.NewSource(11))
	payload := make([]byte, 10000)
	rng.Read(payload)

	s := NewStreamSender(context.Background(), c, testMethods, 64)
	// Write in ragged pieces to exercise buffer splitting.
	for off := 0; off < len(payload); {
		n := 1 + rng.Intn(300)
		if off+n > len(payload) {
			n = len(payload) - off
		}
		if _, err := s.Write(payload[off : off+n]); err != nil {
			t.Fatal(err)
		}
		off += n
	}
	if err := s.Finish(); err != nil {
		t.Fatal(err)
	}
	data, committed, aborted := f.sink(t, 0).state()
	if !bytes.Equal(data, payload) {
		t.Fatalf("sink got %d bytes, want %d (content mismatch: %v)", len(data), len(payload), !bytes.Equal(data, payload))
	}
	if committed != 1 || aborted != 0 {
		t.Fatalf("committed=%d aborted=%d", committed, aborted)
	}
	if n := f.ss.Sessions(); n != 0 {
		t.Fatalf("%d sessions left after commit", n)
	}
}

// begin opens a session by hand and returns its ID.
func beginSession(t *testing.T, c *Client) uint64 {
	t.Helper()
	resp, err := c.Call(context.Background(), testMethods.Begin, nil)
	if err != nil {
		t.Fatal(err)
	}
	id, err := DecodeStreamSession(resp)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestStreamSequenceViolationKillsSession(t *testing.T) {
	f := newStreamFixture(t, 0, 0)
	c, err := Dial(f.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id := beginSession(t, c)

	// Chunks within the reorder window are buffered, but a sequence number
	// beyond it can never come from a well-behaved sender.
	far := uint64(StreamReorderWindow + 1)
	if _, err := c.Call(context.Background(), testMethods.Chunk, EncodeStreamChunk(id, far, []byte("x"))); err == nil {
		t.Fatal("chunk beyond the reorder window accepted")
	}
	// The session is gone: even a correct chunk is now rejected.
	if _, err := c.Call(context.Background(), testMethods.Chunk, EncodeStreamChunk(id, 0, []byte("x"))); err == nil {
		t.Fatal("chunk accepted on a killed session")
	}
	if _, committed, aborted := f.sink(t, 0).state(); committed != 0 || aborted != 1 {
		t.Fatalf("committed=%d aborted=%d, want 0/1", committed, aborted)
	}
}

// TestStreamReorderWithinWindow: chunks arriving out of order — as a
// pipelined sender's concurrent requests may — are buffered and fed to
// the sink strictly in sequence.
func TestStreamReorderWithinWindow(t *testing.T) {
	f := newStreamFixture(t, 0, 0)
	c, err := Dial(f.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id := beginSession(t, c)

	parts := [][]byte{[]byte("alpha-"), []byte("beta-"), []byte("gamma-"), []byte("delta")}
	var sum uint32
	var total uint64
	for _, p := range parts {
		sum = crc32.Update(sum, crcTable, p)
		total += uint64(len(p))
	}
	// Deliver 2, 0, 3, 1 concurrently (a chunk ahead of the gap is only
	// acknowledged once written, so out-of-order delivery must overlap,
	// exactly as a pipelined sender's in-flight window does); every chunk
	// stays within the reorder window of the lowest undelivered sequence
	// number.
	var wg sync.WaitGroup
	errs := make([]error, len(parts))
	for i, seq := range []uint64{2, 0, 3, 1} {
		wg.Add(1)
		go func(i int, seq uint64) {
			defer wg.Done()
			// Stagger so the buffered chunks park before the gap fills.
			time.Sleep(time.Duration(i) * 10 * time.Millisecond)
			_, errs[i] = c.Call(context.Background(), testMethods.Chunk, EncodeStreamChunk(id, seq, parts[seq]))
		}(i, seq)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("chunk call %d: %v", i, err)
		}
	}
	if _, err := c.Call(context.Background(), testMethods.Commit, EncodeStreamCommit(id, uint64(len(parts)), total, sum)); err != nil {
		t.Fatalf("commit: %v", err)
	}
	data, committed, aborted := f.sink(t, 0).state()
	if string(data) != "alpha-beta-gamma-delta" {
		t.Fatalf("sink reassembled %q", data)
	}
	if committed != 1 || aborted != 0 {
		t.Fatalf("committed=%d aborted=%d", committed, aborted)
	}
}

// TestStreamDuplicateChunkKillsSession: a sequence number delivered twice
// (already written, or already buffered) dooms the transfer.
func TestStreamDuplicateChunkKillsSession(t *testing.T) {
	f := newStreamFixture(t, 0, 0)
	c, err := Dial(f.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id := beginSession(t, c)
	if _, err := c.Call(context.Background(), testMethods.Chunk, EncodeStreamChunk(id, 0, []byte("x"))); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call(context.Background(), testMethods.Chunk, EncodeStreamChunk(id, 0, []byte("x"))); err == nil {
		t.Fatal("duplicate chunk accepted")
	}
	if _, committed, aborted := f.sink(t, 0).state(); committed != 0 || aborted != 1 {
		t.Fatalf("committed=%d aborted=%d, want 0/1", committed, aborted)
	}
}

// TestStreamCommitWithGapAborts: a commit while a buffered chunk still
// waits on a missing sequence number must not install the stream, and
// must release the parked chunk handler with an error rather than leaving
// it waiting forever.
func TestStreamCommitWithGapAborts(t *testing.T) {
	f := newStreamFixture(t, 0, 0)
	c, err := Dial(f.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id := beginSession(t, c)
	// seq 1 parks awaiting seq 0, which is never sent.
	chunkErr := make(chan error, 1)
	go func() {
		_, err := c.Call(context.Background(), testMethods.Chunk, EncodeStreamChunk(id, 1, []byte("b")))
		chunkErr <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the chunk buffer and park
	sum := crc32.Checksum([]byte("b"), crcTable)
	if _, err := c.Call(context.Background(), testMethods.Commit, EncodeStreamCommit(id, 2, 1, sum)); err == nil {
		t.Fatal("commit over a sequence gap accepted")
	}
	select {
	case err := <-chunkErr:
		if err == nil {
			t.Fatal("parked chunk acknowledged despite the gap never filling")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked chunk handler leaked past the aborted session")
	}
	if _, committed, aborted := f.sink(t, 0).state(); committed != 0 || aborted != 1 {
		t.Fatalf("committed=%d aborted=%d, want 0/1", committed, aborted)
	}
}

// TestStreamParkedChunkReapedByIdleTimeout: a buffered chunk whose gap
// never fills (its sender died mid-window) must be released by the idle
// reaper, not parked forever.
func TestStreamParkedChunkReapedByIdleTimeout(t *testing.T) {
	f := newStreamFixture(t, 40*time.Millisecond, 0)
	c, err := Dial(f.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id := beginSession(t, c)
	if _, err := c.Call(context.Background(), testMethods.Chunk, EncodeStreamChunk(id, 1, []byte("b"))); err == nil {
		t.Fatal("chunk parked on a never-filled gap was acknowledged")
	}
	if _, committed, aborted := f.sink(t, 0).state(); committed != 0 || aborted != 1 {
		t.Fatalf("committed=%d aborted=%d, want 0/1", committed, aborted)
	}
}

// TestStreamPipelinedRoundTrip pushes a payload through many tiny chunks
// at several pipeline windows and checks byte-identical reassembly; the
// concurrent dispatch exercises the receiver's reorder path under real
// goroutine scheduling.
func TestStreamPipelinedRoundTrip(t *testing.T) {
	for _, window := range []int{1, 4, StreamReorderWindow} {
		f := newStreamFixture(t, 0, 0)
		c, err := Dial(f.addr)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(window)))
		payload := make([]byte, 40000)
		rng.Read(payload)

		s := NewStreamSender(context.Background(), c, testMethods, 128)
		s.SetWindow(window)
		for off := 0; off < len(payload); {
			n := 1 + rng.Intn(500)
			if off+n > len(payload) {
				n = len(payload) - off
			}
			if _, err := s.Write(payload[off : off+n]); err != nil {
				t.Fatalf("window=%d: %v", window, err)
			}
			off += n
		}
		if err := s.Finish(); err != nil {
			t.Fatalf("window=%d: %v", window, err)
		}
		data, committed, aborted := f.sink(t, 0).state()
		if !bytes.Equal(data, payload) {
			t.Fatalf("window=%d: sink got %d bytes, want %d", window, len(data), len(payload))
		}
		if committed != 1 || aborted != 0 {
			t.Fatalf("window=%d: committed=%d aborted=%d", window, committed, aborted)
		}
		c.Close()
	}
}

// TestStreamChecksumMismatchKillsSession: a corrupted chunk whose header
// still names the session must tear that session down immediately rather
// than leaving it to the idle reaper.
func TestStreamChecksumMismatchKillsSession(t *testing.T) {
	f := newStreamFixture(t, 0, 0)
	c, err := Dial(f.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id := beginSession(t, c)
	payload := EncodeStreamChunk(id, 0, []byte("soon to be corrupted"))
	payload[len(payload)-1] ^= 0xff
	if _, err := c.Call(context.Background(), testMethods.Chunk, payload); err == nil {
		t.Fatal("corrupt chunk accepted")
	}
	if n := f.ss.Sessions(); n != 0 {
		t.Fatalf("%d sessions left after corrupt chunk", n)
	}
	if _, committed, aborted := f.sink(t, 0).state(); committed != 0 || aborted != 1 {
		t.Fatalf("committed=%d aborted=%d, want 0/1", committed, aborted)
	}
}

func TestStreamCommitMismatchAborts(t *testing.T) {
	f := newStreamFixture(t, 0, 0)
	c, err := Dial(f.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id := beginSession(t, c)
	if _, err := c.Call(context.Background(), testMethods.Chunk, EncodeStreamChunk(id, 0, []byte("abc"))); err != nil {
		t.Fatal(err)
	}
	// Claim two chunks were sent.
	if _, err := c.Call(context.Background(), testMethods.Commit, EncodeStreamCommit(id, 2, 3, 0)); err == nil {
		t.Fatal("commit with wrong totals accepted")
	}
	if _, committed, aborted := f.sink(t, 0).state(); committed != 0 || aborted != 1 {
		t.Fatalf("committed=%d aborted=%d, want 0/1", committed, aborted)
	}
	if n := f.ss.Sessions(); n != 0 {
		t.Fatalf("%d sessions left after failed commit", n)
	}
}

func TestStreamIdleTimeoutReapsSession(t *testing.T) {
	f := newStreamFixture(t, 30*time.Millisecond, 0)
	c, err := Dial(f.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id := beginSession(t, c)
	if f.ss.Sessions() != 1 {
		t.Fatal("session not registered")
	}
	deadline := time.Now().Add(5 * time.Second)
	for f.ss.Sessions() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle session never reaped")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, committed, aborted := f.sink(t, 0).state(); committed != 0 || aborted != 1 {
		t.Fatalf("committed=%d aborted=%d, want 0/1", committed, aborted)
	}
	// The sender finds out on its next chunk.
	if _, err := c.Call(context.Background(), testMethods.Chunk, EncodeStreamChunk(id, 0, []byte("x"))); err == nil {
		t.Fatal("chunk accepted on a reaped session")
	} else if !strings.Contains(err.Error(), ErrUnknownSession.Error()) {
		t.Fatalf("err = %v, want unknown session", err)
	}
}

func TestStreamExplicitAbort(t *testing.T) {
	f := newStreamFixture(t, 0, 0)
	c, err := Dial(f.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id := beginSession(t, c)
	if _, err := c.Call(context.Background(), testMethods.Chunk, EncodeStreamChunk(id, 0, []byte("partial"))); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call(context.Background(), testMethods.Abort, EncodeStreamSession(id)); err != nil {
		t.Fatalf("abort: %v", err)
	}
	// Aborting an already-gone session is not an error (idempotent reap).
	if _, err := c.Call(context.Background(), testMethods.Abort, EncodeStreamSession(id)); err != nil {
		t.Fatalf("second abort: %v", err)
	}
	if _, committed, aborted := f.sink(t, 0).state(); committed != 0 || aborted != 1 {
		t.Fatalf("committed=%d aborted=%d, want 0/1", committed, aborted)
	}
}

func TestStreamSessionLimit(t *testing.T) {
	f := newStreamFixture(t, 0, 1)
	c, err := Dial(f.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	beginSession(t, c)
	if _, err := c.Call(context.Background(), testMethods.Begin, nil); err == nil {
		t.Fatal("second session accepted over the limit")
	} else if !strings.Contains(err.Error(), ErrSessionLimit.Error()) {
		t.Fatalf("err = %v, want session limit", err)
	}
}

// TestStreamSinkWriteErrorPropagates: a sink that rejects data must fail
// the chunk call and kill the session.
func TestStreamSinkWriteErrorPropagates(t *testing.T) {
	srv := NewServer()
	var aborted sync.WaitGroup
	aborted.Add(1)
	ss := NewStreamServer(func() (StreamSink, error) {
		return &failSink{onAbort: aborted.Done}, nil
	}, 0, 0)
	ss.Register(srv, testMethods)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer ss.Close()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id := beginSession(t, c)
	if _, err := c.Call(context.Background(), testMethods.Chunk, EncodeStreamChunk(id, 0, []byte("x"))); err == nil {
		t.Fatal("chunk accepted by a failing sink")
	}
	aborted.Wait()
	if n := ss.Sessions(); n != 0 {
		t.Fatalf("%d sessions left after sink failure", n)
	}
}

type failSink struct{ onAbort func() }

func (k *failSink) Write([]byte) (int, error) { return 0, errors.New("sink full") }
func (k *failSink) Commit() error             { return nil }
func (k *failSink) Abort()                    { k.onAbort() }

// TestPoolCursorNearWrap: the pool's round-robin modulo is computed in
// uint64, so a counter past the int range must keep dealing connections
// instead of panicking with a negative index.
func TestPoolCursorNearWrap(t *testing.T) {
	srv := NewServer()
	srv.Handle(1, func(p []byte) ([]byte, error) { return p, nil })
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p, err := DialPool(addr, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.next.Store(math.MaxUint64 - 4)
	for i := 0; i < 10; i++ {
		if _, err := p.Call(context.Background(), 1, []byte("ping")); err != nil {
			t.Fatalf("call %d across the counter wrap: %v", i, err)
		}
	}
}
