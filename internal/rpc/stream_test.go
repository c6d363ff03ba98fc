package rpc

import (
	"bytes"
	"context"
	"encoding/hex"
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
	delay     time.Duration // per Write, to make concurrent handlers overlap
}

func (k *testSink) Write(p []byte) (int, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	time.Sleep(k.delay)
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
	// The wire bytes are pinned: session, seq, CRC-32C (little-endian), data.
	const golden = "0700000000000000" + "2a00000000000000" + "d3ef5533" + "74686520717569636b2062726f776e20666f78"
	if got := hex.EncodeToString(p); got != golden {
		t.Fatalf("chunk encodes as %s, want %s", got, golden)
	}
	session, seq, got, err := DecodeStreamChunk(p)
	if err != nil {
		t.Fatal(err)
	}
	if session != 7 || seq != 42 || !bytes.Equal(got, data) {
		t.Fatalf("decoded (%d, %d, %q)", session, seq, got)
	}
	// Corrupt one data byte: the checksum must catch it, and the header
	// still names the session and seq the server must tear down.
	p[len(p)-1] ^= 0xff
	if session, seq, _, err := DecodeStreamChunk(p); !errors.Is(err, errChunkChecksum) || session != 7 || seq != 42 {
		t.Fatalf("corrupt chunk decoded as (%d, %d, %v)", session, seq, err)
	}
	if _, _, _, err := DecodeStreamChunk([]byte("short")); err == nil || errors.Is(err, errChunkChecksum) {
		t.Fatalf("truncated chunk: err = %v, want a length error", err)
	}
}

func TestStreamCommitCodec(t *testing.T) {
	p := EncodeStreamCommit(1, 2, 3, 4)
	const golden = "0100000000000000" + "0200000000000000" + "0300000000000000" + "04000000"
	if got := hex.EncodeToString(p); got != golden {
		t.Fatalf("commit encodes as %s, want %s", got, golden)
	}
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

// TestStreamSequenceViolationKillsSession: the receiver accepts only the
// next sequence number; a gap or a duplicate dooms the transfer — the call
// fails, the session is gone (a following correct chunk is rejected too)
// and its sink is aborted exactly once.
func TestStreamSequenceViolationKillsSession(t *testing.T) {
	for _, tc := range []struct {
		name    string
		written int    // in-order chunks written before the violation
		seq     uint64 // the violating sequence number
	}{
		{"gap", 0, 1},
		{"farAhead", 1, 1 << 40},
		{"duplicate", 2, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newStreamFixture(t, 0, 0)
			c, err := Dial(f.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			id := beginSession(t, c)
			ctx := context.Background()
			for seq := 0; seq < tc.written; seq++ {
				if _, err := c.Call(ctx, testMethods.Chunk, EncodeStreamChunk(id, uint64(seq), []byte("x"))); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := c.Call(ctx, testMethods.Chunk, EncodeStreamChunk(id, tc.seq, []byte("y"))); err == nil {
				t.Fatalf("chunk %d accepted with %d written", tc.seq, tc.written)
			}
			next := uint64(tc.written)
			if _, err := c.Call(ctx, testMethods.Chunk, EncodeStreamChunk(id, next, []byte("z"))); err == nil {
				t.Fatal("chunk accepted on a killed session")
			}
			if _, committed, aborted := f.sink(t, 0).state(); committed != 0 || aborted != 1 {
				t.Fatalf("committed=%d aborted=%d, want 0/1", committed, aborted)
			}
			if n := f.ss.Sessions(); n != 0 {
				t.Fatalf("%d sessions left after a sequence violation", n)
			}
		})
	}
}

// TestStreamConcurrentChunks: a misbehaving client fires every chunk of a
// session at once. sess.mu must still serialise the handlers: the sink only
// ever holds an in-order prefix of the stream, and the session either
// commits the exact payload or is aborted exactly once.
func TestStreamConcurrentChunks(t *testing.T) {
	f := newStreamFixture(t, 0, 0)
	c, err := Dial(f.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id := beginSession(t, c)
	k := f.sink(t, 0)
	k.mu.Lock()
	k.delay = time.Millisecond
	k.mu.Unlock()

	const chunks = 8
	var payload []byte
	var wg sync.WaitGroup
	errs := make([]error, chunks)
	for seq := 0; seq < chunks; seq++ {
		part := bytes.Repeat([]byte{byte('a' + seq)}, 100+seq)
		payload = append(payload, part...)
		wg.Add(1)
		go func(seq int, part []byte) {
			defer wg.Done()
			_, errs[seq] = c.Call(context.Background(), testMethods.Chunk, EncodeStreamChunk(id, uint64(seq), part))
		}(seq, part)
	}
	wg.Wait()
	failed := 0
	for _, err := range errs {
		if err != nil {
			failed++
		}
	}
	if failed == 0 {
		sum := crc32.Checksum(payload, crcTable)
		if _, err := c.Call(context.Background(), testMethods.Commit, EncodeStreamCommit(id, chunks, uint64(len(payload)), sum)); err != nil {
			t.Fatalf("commit after every chunk was acknowledged: %v", err)
		}
	}
	data, committed, aborted := k.state()
	if !bytes.HasPrefix(payload, data) {
		t.Fatalf("sink holds %d bytes that are not a prefix of the stream", len(data))
	}
	switch {
	case failed == 0 && (!bytes.Equal(data, payload) || committed != 1 || aborted != 0):
		t.Fatalf("all chunks acknowledged: sink has %d of %d bytes, committed=%d aborted=%d", len(data), len(payload), committed, aborted)
	case failed > 0 && (committed != 0 || aborted != 1):
		t.Fatalf("%d chunks rejected: committed=%d aborted=%d, want 0/1", failed, committed, aborted)
	}
	if n := f.ss.Sessions(); n != 0 {
		t.Fatalf("%d sessions left", n)
	}
}

// TestStreamChecksumMismatchKillsSession: a corrupted chunk whose header
// still names the session must tear that session down immediately rather
// than leaving it to the idle reaper. A payload too short to name a
// session, and a corrupted chunk naming an unknown session, are refused
// without touching it.
func TestStreamChecksumMismatchKillsSession(t *testing.T) {
	f := newStreamFixture(t, 0, 0)
	c, err := Dial(f.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id := beginSession(t, c)
	if _, err := c.Call(context.Background(), testMethods.Chunk, make([]byte, chunkHeaderLen-1)); err == nil {
		t.Fatal("chunk shorter than its header accepted")
	}
	stranger := EncodeStreamChunk(id+1, 0, []byte("corrupt, and not ours"))
	stranger[len(stranger)-1] ^= 0xff
	if _, err := c.Call(context.Background(), testMethods.Chunk, stranger); err == nil ||
		!strings.Contains(err.Error(), ErrUnknownSession.Error()) {
		t.Fatalf("corrupt chunk of an unknown session: err = %v, want unknown session", err)
	}
	if n := f.ss.Sessions(); n != 1 {
		t.Fatalf("%d sessions after chunks that name no live session, want 1", n)
	}
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
