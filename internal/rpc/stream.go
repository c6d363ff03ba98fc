package rpc

// This file implements the chunked streaming transfer: a session-oriented
// protocol layered on the plain request/response frames, used to move
// payloads larger than MaxFrame (full-index snapshots, §2.2's distribution
// step) without ever materialising them in one buffer on either side.
//
// A transfer is four methods, whose IDs the application supplies via
// StreamMethods:
//
//	begin:  empty                                   → [8B sessionID]
//	chunk:  [8B sessionID][8B seq][4B crc32c][data] → empty
//	commit: [8B sessionID][8B chunks][8B bytes][4B crc32c(stream)] → empty
//	abort:  [8B sessionID]                          → empty
//
// Chunks carry a sequential sequence number and a CRC-32C over their data;
// commit re-states the chunk count, total byte count and the running
// CRC-32C of the whole stream, so a duplicated, torn or corrupted transfer
// can never be installed. The transfer is stop-and-wait: the sender keeps
// one chunk in flight and ships the next only once the previous one is
// acknowledged, so its peak memory is one chunk; the receiver writes each
// chunk to the sink as it arrives and accepts only the next expected
// sequence number — any other kills the transfer. The receiver also
// enforces an idle timeout between chunks: a sender that vanishes
// mid-stream leaves nothing behind once the timeout reaps its session.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"time"
)

const (
	// DefaultChunkSize is the default streamed-chunk data size: well under
	// MaxFrame so chunk frames never brush the frame ceiling, large enough
	// to amortise per-chunk round trips.
	DefaultChunkSize = 4 << 20

	// chunkHeaderLen is [8B session][8B seq][4B crc32c].
	chunkHeaderLen = 8 + 8 + 4
	// commitLen is [8B session][8B chunks][8B bytes][4B crc32c].
	commitLen = 8 + 8 + 8 + 4

	// MaxChunkData bounds one chunk's data so its request frame stays under
	// MaxFrame.
	MaxChunkData = MaxFrame - reqHeader - chunkHeaderLen
)

var (
	// ErrUnknownSession is returned for a chunk/commit referencing a session
	// the server does not hold (never begun, already finished, or reaped by
	// the idle timeout).
	ErrUnknownSession = errors.New("rpc: unknown stream session")
	// ErrSessionLimit is returned by begin when the server already holds its
	// maximum number of in-flight sessions.
	ErrSessionLimit = errors.New("rpc: too many stream sessions")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// errChunkChecksum is wrapped by DecodeStreamChunk's error for a chunk
// whose data does not match its CRC-32C.
var errChunkChecksum = errors.New("checksum mismatch")

// StreamMethods names the four RPC method IDs one chunked-transfer protocol
// instance uses.
type StreamMethods struct {
	Begin, Chunk, Commit, Abort uint16
}

// EncodeStreamSession encodes a bare session reference (begin response,
// abort request).
func EncodeStreamSession(id uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, id)
	return b
}

// DecodeStreamSession decodes a bare session reference.
func DecodeStreamSession(p []byte) (uint64, error) {
	if len(p) != 8 {
		return 0, fmt.Errorf("rpc: stream session payload is %d bytes, want 8", len(p))
	}
	return binary.LittleEndian.Uint64(p), nil
}

// EncodeStreamChunk builds a chunk payload for data with its CRC-32C.
// StreamSender fills its reused buffer's header in place instead; this
// allocating form stays for tests, which inject raw chunks with it.
func EncodeStreamChunk(session, seq uint64, data []byte) []byte {
	b := make([]byte, chunkHeaderLen+len(data))
	copy(b[chunkHeaderLen:], data)
	putChunkHeader(b, session, seq)
	return b
}

// putChunkHeader fills the header of chunk payload b, whose data follows
// the header.
func putChunkHeader(b []byte, session, seq uint64) {
	binary.LittleEndian.PutUint64(b[0:8], session)
	binary.LittleEndian.PutUint64(b[8:16], seq)
	binary.LittleEndian.PutUint32(b[16:20], crc32.Checksum(b[chunkHeaderLen:], crcTable))
}

// DecodeStreamChunk splits a chunk payload and verifies its checksum. The
// returned data aliases p. A chunk whose header parses but whose data
// fails the checksum still returns its session and seq, with an error
// wrapping errChunkChecksum, so the server can tear that session down.
func DecodeStreamChunk(p []byte) (session, seq uint64, data []byte, err error) {
	if len(p) < chunkHeaderLen {
		return 0, 0, nil, fmt.Errorf("rpc: stream chunk payload is %d bytes, want >= %d", len(p), chunkHeaderLen)
	}
	session = binary.LittleEndian.Uint64(p[0:8])
	seq = binary.LittleEndian.Uint64(p[8:16])
	sum := binary.LittleEndian.Uint32(p[16:20])
	data = p[chunkHeaderLen:]
	if got := crc32.Checksum(data, crcTable); got != sum {
		return session, seq, nil, fmt.Errorf("rpc: stream session %d chunk %d %w (got %08x, want %08x)", session, seq, errChunkChecksum, got, sum)
	}
	return session, seq, data, nil
}

// EncodeStreamCommit builds a commit payload restating the transfer totals.
func EncodeStreamCommit(session, chunks, bytes uint64, sum uint32) []byte {
	b := make([]byte, commitLen)
	binary.LittleEndian.PutUint64(b[0:8], session)
	binary.LittleEndian.PutUint64(b[8:16], chunks)
	binary.LittleEndian.PutUint64(b[16:24], bytes)
	binary.LittleEndian.PutUint32(b[24:28], sum)
	return b
}

// DecodeStreamCommit splits a commit payload.
func DecodeStreamCommit(p []byte) (session, chunks, bytes uint64, sum uint32, err error) {
	if len(p) != commitLen {
		return 0, 0, 0, 0, fmt.Errorf("rpc: stream commit payload is %d bytes, want %d", len(p), commitLen)
	}
	return binary.LittleEndian.Uint64(p[0:8]),
		binary.LittleEndian.Uint64(p[8:16]),
		binary.LittleEndian.Uint64(p[16:24]),
		binary.LittleEndian.Uint32(p[24:28]),
		nil
}

// StreamSender uploads a byte stream to a server as a chunked session. It
// is an io.Writer: producers serialise straight into it and it ships a
// chunk each time its buffer fills. It is stop-and-wait — one chunk in
// flight, the next shipped only once that one is acknowledged — so peak
// sender memory is one chunk, not O(stream), and a receiver that sees any
// sequence number but the next one kills the session. The session begins
// with the first chunk shipped (or at Finish): a stream that fits in a
// single chunk is a one-chunk session.
//
// Not safe for concurrent use.
type StreamSender struct {
	ctx context.Context
	c   *Client
	m   StreamMethods

	begun   bool
	session uint64
	buf     []byte // the chunk payload being filled: header, then up to cap(buf) data
	seq     uint64
	total   uint64
	sum     uint32
	err     error // sticky
}

// NewStreamSender prepares a sender over c. chunkSize <= 0 takes
// DefaultChunkSize; values above MaxChunkData are capped.
func NewStreamSender(ctx context.Context, c *Client, m StreamMethods, chunkSize int) *StreamSender {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	if chunkSize > MaxChunkData {
		chunkSize = MaxChunkData
	}
	return &StreamSender{ctx: ctx, c: c, m: m, buf: make([]byte, chunkHeaderLen, chunkHeaderLen+chunkSize)}
}

// Write implements io.Writer, shipping a chunk whenever the buffer fills.
func (s *StreamSender) Write(p []byte) (int, error) {
	if s.err != nil {
		return 0, s.err
	}
	written := 0
	for len(p) > 0 {
		if len(s.buf) == cap(s.buf) {
			if err := s.flush(); err != nil {
				return written, err
			}
		}
		n := copy(s.buf[len(s.buf):cap(s.buf)], p)
		s.buf = s.buf[:len(s.buf)+n]
		p = p[n:]
		written += n
	}
	return written, nil
}

// begin opens the session if it is not open yet.
func (s *StreamSender) begin() error {
	if s.begun {
		return nil
	}
	resp, err := s.c.Call(s.ctx, s.m.Begin, nil)
	if err != nil {
		s.err = err
		return err
	}
	id, err := DecodeStreamSession(resp)
	if err != nil {
		s.err = err
		return err
	}
	s.session = id
	s.begun = true
	return nil
}

// flush ships the buffered chunk, beginning the session first if needed,
// and waits for its acknowledgement. Client.Call has written the frame by
// the time it returns, so the buffer is free for the next chunk.
func (s *StreamSender) flush() error {
	if err := s.begin(); err != nil {
		return err
	}
	putChunkHeader(s.buf, s.session, s.seq)
	if _, err := s.c.Call(s.ctx, s.m.Chunk, s.buf); err != nil {
		s.err = err
		return err
	}
	data := s.buf[chunkHeaderLen:]
	s.sum = crc32.Update(s.sum, crcTable, data)
	s.seq++
	s.total += uint64(len(data))
	s.buf = s.buf[:chunkHeaderLen]
	return nil
}

// Finish completes the transfer: it flushes the tail chunk and commits the
// session, which installs the stream server-side.
func (s *StreamSender) Finish() error {
	if s.err != nil {
		return s.err
	}
	if err := s.begin(); err != nil {
		return err
	}
	if len(s.buf) > chunkHeaderLen {
		if err := s.flush(); err != nil {
			return err
		}
	}
	if _, err := s.c.Call(s.ctx, s.m.Commit, EncodeStreamCommit(s.session, s.seq, s.total, s.sum)); err != nil {
		s.err = err
		return err
	}
	return nil
}

// Abort tears down a begun session server-side, best effort. Safe to call
// whether or not a session was begun; never call it after a successful
// Finish.
func (s *StreamSender) Abort() {
	if !s.begun {
		return
	}
	// Use a fresh context: Abort is typically called on the failure path
	// where s.ctx may already be cancelled, and the reap must still go out.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, _ = s.c.Call(ctx, s.m.Abort, EncodeStreamSession(s.session))
}

// StreamSink consumes one inbound stream on the receiving side. The
// StreamServer calls Write for each verified chunk in order, then exactly
// one of Commit (stream complete and totals verified — install it) or
// Abort (tear down without side effects).
type StreamSink interface {
	io.Writer
	Commit() error
	Abort()
}

// StreamServer tracks inbound chunked-transfer sessions for a Server. Its
// Handle* methods are rpc Handlers; Register installs all four. Sessions
// that go idle longer than the configured timeout are reaped (their sink
// aborted), so a crashed sender cannot pin receiver state forever.
type StreamServer struct {
	open        func() (StreamSink, error)
	idleTimeout time.Duration
	maxSessions int

	mu       sync.Mutex
	sessions map[uint64]*streamSession
	pending  int // begins past the limit check, sink still opening
	nextID   uint64
	closed   bool
}

type streamSession struct {
	id    uint64
	sink  StreamSink
	timer *time.Timer
	epoch uint64 // invalidates in-flight timer fires; guarded by StreamServer.mu

	// mu serialises all sink access and sequence state: the idle reaper,
	// HandleAbort, Close and a misbehaving client's concurrent chunk calls
	// can all reach one session at once.
	mu      sync.Mutex
	dead    bool // sink already committed or aborted; reject further use
	nextSeq uint64
	bytes   uint64
	sum     uint32
}

const (
	// DefaultStreamIdleTimeout reaps sessions whose sender stalled.
	DefaultStreamIdleTimeout = 30 * time.Second
	// DefaultMaxStreamSessions bounds concurrent in-flight transfers.
	DefaultMaxStreamSessions = 8
)

// NewStreamServer builds a session tracker. open is invoked per begin to
// create the session's sink. idleTimeout <= 0 takes
// DefaultStreamIdleTimeout; maxSessions <= 0 takes
// DefaultMaxStreamSessions.
func NewStreamServer(open func() (StreamSink, error), idleTimeout time.Duration, maxSessions int) *StreamServer {
	if idleTimeout <= 0 {
		idleTimeout = DefaultStreamIdleTimeout
	}
	if maxSessions <= 0 {
		maxSessions = DefaultMaxStreamSessions
	}
	return &StreamServer{
		open:        open,
		idleTimeout: idleTimeout,
		maxSessions: maxSessions,
		sessions:    make(map[uint64]*streamSession),
	}
}

// Register installs the four stream handlers on srv.
func (ss *StreamServer) Register(srv *Server, m StreamMethods) {
	srv.Handle(m.Begin, ss.HandleBegin)
	srv.Handle(m.Chunk, ss.HandleChunk)
	srv.Handle(m.Commit, ss.HandleCommit)
	srv.Handle(m.Abort, ss.HandleAbort)
}

// Sessions returns the number of in-flight sessions.
func (ss *StreamServer) Sessions() int {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return len(ss.sessions)
}

// arm (re)starts sess's idle timer. Caller holds ss.mu.
func (ss *StreamServer) arm(sess *streamSession) {
	sess.epoch++
	epoch := sess.epoch
	sess.timer = time.AfterFunc(ss.idleTimeout, func() {
		ss.mu.Lock()
		cur, ok := ss.sessions[sess.id]
		if !ok || cur != sess || sess.epoch != epoch {
			ss.mu.Unlock()
			return // finished or superseded while we were firing
		}
		delete(ss.sessions, sess.id)
		ss.mu.Unlock()
		sess.abortOnce()
	})
}

// abortOnce aborts the session's sink exactly once, waiting out any chunk
// write in progress.
func (sess *streamSession) abortOnce() {
	sess.mu.Lock()
	already := sess.dead
	sess.dead = true
	sess.mu.Unlock()
	if !already {
		sess.sink.Abort()
	}
}

// kill removes the session from the table (if still there) and aborts its
// sink.
func (ss *StreamServer) kill(sess *streamSession) {
	ss.mu.Lock()
	if cur, ok := ss.sessions[sess.id]; ok && cur == sess {
		delete(ss.sessions, sess.id)
		sess.disarm()
	}
	ss.mu.Unlock()
	sess.abortOnce()
}

// disarm invalidates any pending idle fire. Caller holds ss.mu.
func (sess *streamSession) disarm() {
	sess.epoch++
	if sess.timer != nil {
		sess.timer.Stop()
	}
}

// HandleBegin opens a session and returns its ID.
func (ss *StreamServer) HandleBegin([]byte) ([]byte, error) {
	ss.mu.Lock()
	if ss.closed {
		ss.mu.Unlock()
		return nil, ErrClosed
	}
	// Count begins whose sink is still opening toward the limit, so
	// concurrent begins cannot race past it while open() runs unlocked.
	if len(ss.sessions)+ss.pending >= ss.maxSessions {
		ss.mu.Unlock()
		return nil, ErrSessionLimit
	}
	ss.pending++
	ss.nextID++
	id := ss.nextID
	ss.mu.Unlock()

	sink, err := ss.open()

	ss.mu.Lock()
	ss.pending--
	if err != nil {
		ss.mu.Unlock()
		return nil, err
	}
	if ss.closed {
		ss.mu.Unlock()
		sink.Abort()
		return nil, ErrClosed
	}
	sess := &streamSession{id: id, sink: sink}
	ss.sessions[id] = sess
	ss.arm(sess)
	ss.mu.Unlock()
	return EncodeStreamSession(id), nil
}

// take removes the session from the table, disarming its timer, so the
// caller owns its sink exclusively. Returns nil if the session is unknown.
func (ss *StreamServer) take(id uint64) *streamSession {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	sess, ok := ss.sessions[id]
	if !ok {
		return nil
	}
	delete(ss.sessions, id)
	sess.disarm()
	return sess
}

// HandleChunk verifies one chunk and writes it to the sink. Only the next
// expected sequence number is accepted; a duplicate, a gap or a corrupt
// chunk dooms the transfer.
func (ss *StreamServer) HandleChunk(payload []byte) ([]byte, error) {
	id, seq, data, err := DecodeStreamChunk(payload)
	if err != nil && !errors.Is(err, errChunkChecksum) {
		// Too short to even name a session; if the sender is gone the idle
		// timer reaps whatever it had open.
		return nil, err
	}

	ss.mu.Lock()
	sess, ok := ss.sessions[id]
	if ok {
		// Hold the idle reaper off while this chunk is processed.
		sess.disarm()
	}
	ss.mu.Unlock()
	if !ok {
		return nil, ErrUnknownSession
	}
	// The header parsed, so the session is identifiable: a corrupt or
	// out-of-sequence chunk dooms the transfer and the session is torn
	// down now rather than lingering until the idle timeout.
	if err != nil {
		ss.kill(sess)
		return nil, err
	}

	sess.mu.Lock()
	if sess.dead {
		sess.mu.Unlock()
		return nil, ErrUnknownSession
	}
	if seq != sess.nextSeq {
		err = fmt.Errorf("rpc: stream session %d chunk %d out of sequence (next seq %d)", id, seq, sess.nextSeq)
	} else {
		//jdvs:blocking-ok sess.mu exists to serialise sink access, and the searcher's snapshotSink.Write returns once its decoder consumes the bytes or closes the pipe with an error
		_, err = sess.sink.Write(data)
	}
	if err == nil {
		sess.nextSeq++
		sess.bytes += uint64(len(data))
		sess.sum = crc32.Update(sess.sum, crcTable, data)
	}
	sess.mu.Unlock()
	if err != nil {
		ss.kill(sess)
		return nil, err
	}

	ss.mu.Lock()
	if ss.closed {
		ss.mu.Unlock()
		sess.abortOnce()
		return nil, ErrClosed
	}
	if _, live := ss.sessions[id]; live {
		ss.arm(sess)
	}
	ss.mu.Unlock()
	return nil, nil
}

// HandleCommit verifies the transfer totals and installs the stream via
// the sink.
func (ss *StreamServer) HandleCommit(payload []byte) ([]byte, error) {
	id, chunks, total, sum, err := DecodeStreamCommit(payload)
	if err != nil {
		return nil, err
	}
	sess := ss.take(id)
	if sess == nil {
		return nil, ErrUnknownSession
	}
	sess.mu.Lock()
	if sess.dead {
		sess.mu.Unlock()
		return nil, ErrUnknownSession
	}
	if chunks != sess.nextSeq || total != sess.bytes || sum != sess.sum {
		sess.dead = true
		mismatch := fmt.Errorf("rpc: stream session %d commit mismatch (got %d chunks/%d bytes/%08x, have %d/%d/%08x)",
			id, chunks, total, sum, sess.nextSeq, sess.bytes, sess.sum)
		sess.mu.Unlock()
		sess.sink.Abort()
		return nil, mismatch
	}
	// Terminal: reject any stray chunk that races the commit.
	sess.dead = true
	cerr := sess.sink.Commit()
	sess.mu.Unlock()
	return nil, cerr
}

// HandleAbort tears a session down. Aborting an unknown (already finished
// or reaped) session is not an error.
func (ss *StreamServer) HandleAbort(payload []byte) ([]byte, error) {
	id, err := DecodeStreamSession(payload)
	if err != nil {
		return nil, err
	}
	if sess := ss.take(id); sess != nil {
		sess.abortOnce()
	}
	return nil, nil
}

// Close aborts every in-flight session and rejects new ones.
func (ss *StreamServer) Close() {
	ss.mu.Lock()
	ss.closed = true
	var reap []*streamSession
	for id, sess := range ss.sessions {
		delete(ss.sessions, id)
		sess.disarm()
		reap = append(reap, sess)
	}
	ss.mu.Unlock()
	for _, sess := range reap {
		sess.abortOnce()
	}
}
