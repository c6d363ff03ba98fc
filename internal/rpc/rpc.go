// Package rpc is the wire substrate connecting the search tiers of Fig. 10
// (frontend → blender → broker → searcher) and the KV/feature services: a
// minimal multiplexed request/response protocol over TCP built only on the
// standard library.
//
// Frame layout (little endian):
//
//	request:  [4B frameLen][8B requestID][2B method][payload...]
//	response: [4B frameLen][8B requestID][1B status][payload or error text]
//
// frameLen counts the bytes after the length word. Requests multiplex
// freely over one connection: a client issues concurrent calls and matches
// responses by request ID, so a single searcher connection sustains the
// fan-out concurrency the three-level architecture needs without a
// connection per in-flight query.
//
// A hop is kept cheap on both ends: every frame leaves in a single Write
// (length word, header and payload assembled in one per-connection buffer),
// both read loops read through a per-connection bufio.Reader, and the
// server runs handlers on resident worker goroutines rather than a fresh
// goroutine per request. Client.Go issues a request without blocking and
// delivers its reply on a caller-owned channel, so one goroutine can keep
// many requests in flight (the broker's fan-out); Call is Go plus a wait.
//
// Payloads larger than MaxFrame move through the chunked streaming
// protocol (StreamSender / StreamServer, stream.go): a begin/chunk/commit
// session of checksummed, sequence-numbered chunks with an idle-timeout
// reaper on the receiving side.
package rpc

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
)

const (
	// MaxFrame bounds a frame to guard against corrupt length words.
	MaxFrame = 64 << 20

	statusOK  = 0
	statusErr = 1

	reqHeader  = 8 + 2
	respHeader = 8 + 1

	// frameStep is the most readFrame allocates before a frame's body
	// arrives; a longer frame's buffer doubles as its bytes come in, so a
	// length word alone cannot make a node allocate MaxFrame.
	frameStep = 64 << 10

	// maxKeptFrame caps the write buffer a connection keeps between frames:
	// query traffic reuses it, a snapshot chunk's buffer is left to the GC.
	maxKeptFrame = 64 << 10

	// maxIdleWorkers is how many finished handler goroutines a Server keeps
	// parked for the next request. A parked worker keeps its grown stack,
	// so a request dispatched to it pays neither goroutine creation nor
	// stack growth; past this many, a finished worker exits. It bounds
	// what stays resident, not concurrency: a request that finds no idle
	// worker gets a new one.
	maxIdleWorkers = 3
)

var (
	// ErrClosed is returned by calls on a closed client or server.
	ErrClosed = errors.New("rpc: connection closed")
	// ErrFrameTooLarge is returned when a frame exceeds MaxFrame.
	ErrFrameTooLarge = errors.New("rpc: frame too large")
)

// RemoteError is an error string propagated from a handler to the caller.
type RemoteError struct {
	Method uint16
	Msg    string
}

// Error implements error.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("rpc: remote error (method %d): %s", e.Method, e.Msg)
}

// Handler processes one request payload and returns a response payload.
type Handler func(payload []byte) ([]byte, error)

// Server dispatches incoming requests to registered handlers.
type Server struct {
	mu       sync.Mutex
	handlers map[uint16]Handler
	lis      net.Listener
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup
	closed   bool

	// work hands a request to a parked worker. It is unbuffered, so a
	// non-blocking send succeeds exactly when a worker is parked on it.
	work chan job
	idle atomic.Int32  // workers parked, or about to park, on work
	stop chan struct{} // closed by Close: parked workers exit
}

// NewServer returns an empty server.
func NewServer() *Server {
	return &Server{
		handlers: make(map[uint16]Handler),
		conns:    make(map[net.Conn]struct{}),
		work:     make(chan job),
		stop:     make(chan struct{}),
	}
}

// Handle registers h for method. It must be called before Serve.
func (s *Server) Handle(method uint16, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[method] = h
}

// Listen binds to addr ("host:port"; ":0" picks a free port) and starts
// serving in the background. It returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("rpc: listen %s: %w", addr, err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = lis.Close()
		return "", ErrClosed
	}
	s.lis = lis
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(lis)
	return lis.Addr().String(), nil
}

func (s *Server) acceptLoop(lis net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := lis.Accept()
		// Accept fails only when the listener closes: shutdown, not dropped work.
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// serverConn is one accepted connection's response side: the writer its
// handlers share and the count of its requests still being handled.
type serverConn struct {
	w        frameWriter
	inflight sync.WaitGroup
}

// job is one request on its way to a worker.
type job struct {
	h       Handler // nil: unknown method
	method  uint16
	id      uint64
	payload []byte
	sc      *serverConn
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		_ = conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	sc := &serverConn{w: frameWriter{conn: conn}}
	defer sc.inflight.Wait()
	br := bufio.NewReader(conn)
	for {
		frame, err := readFrame(br)
		// Read failure is teardown, not dropped work: in-flight handlers drain via inflight.
		if err != nil {
			return
		}
		if len(frame) < reqHeader {
			return // malformed: drop the connection
		}
		method := binary.LittleEndian.Uint16(frame[8:10])
		s.mu.Lock()
		h := s.handlers[method]
		s.mu.Unlock()
		sc.inflight.Add(1)
		s.dispatch(job{
			h:       h,
			method:  method,
			id:      binary.LittleEndian.Uint64(frame[0:8]),
			payload: frame[reqHeader:],
			sc:      sc,
		})
	}
}

// dispatch hands j to a parked worker if there is one, and otherwise
// starts a worker for it; it never waits.
func (s *Server) dispatch(j job) {
	select {
	case s.work <- j:
	default:
		s.wg.Add(1)
		go s.worker(j)
	}
}

// worker runs j, then parks for the next job unless maxIdleWorkers are
// parked already.
func (s *Server) worker(j job) {
	defer s.wg.Done()
	for {
		j.run()
		j = job{} // a parked worker must not pin the last request's payload
		if s.idle.Add(1) > maxIdleWorkers {
			s.idle.Add(-1)
			return
		}
		select {
		case j = <-s.work:
			s.idle.Add(-1)
		case <-s.stop:
			s.idle.Add(-1)
			return
		}
	}
}

func (j *job) run() {
	defer j.sc.inflight.Done()
	var resp []byte
	var herr error
	if j.h == nil {
		herr = fmt.Errorf("unknown method %d", j.method)
	} else {
		resp, herr = j.h(j.payload)
	}
	if herr != nil {
		_ = j.sc.w.writeFrame(j.id, []byte{statusErr}, []byte(herr.Error()))
		return
	}
	_ = j.sc.w.writeFrame(j.id, []byte{statusOK}, resp)
}

// Addr returns the server's bound address ("" before Listen).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lis == nil {
		return ""
	}
	return s.lis.Addr().String()
}

// Close stops accepting, closes all connections and waits for in-flight
// handlers and parked workers.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	if s.lis != nil {
		_ = s.lis.Close()
	}
	for c := range s.conns {
		_ = c.Close()
	}
	close(s.stop)
	s.mu.Unlock()
	s.wg.Wait()
}

// readFrame reads one length-prefixed frame. The buffer grows toward the
// declared length only as bytes arrive (by doubling past frameStep), so a
// peer that announces a large frame and stalls or hangs up costs at most
// about twice what it actually sent.
func readFrame(br *bufio.Reader) ([]byte, error) {
	hdr, err := br.Peek(4)
	if err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr))
	_, _ = br.Discard(4) // cannot fail: Peek just buffered these bytes
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	frame := make([]byte, 0, min(n, frameStep))
	for len(frame) < n {
		if len(frame) == cap(frame) {
			frame = slices.Grow(frame, min(n-len(frame), len(frame)))
		}
		got, err := io.ReadFull(br, frame[len(frame):min(n, cap(frame))])
		frame = frame[:len(frame)+got]
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF // the length word promised more
			}
			return nil, err
		}
	}
	return frame, nil
}

// frameWriter puts whole frames on one connection: each frame is assembled
// in a reused buffer and leaves in a single Write, so concurrent writers
// never interleave and a frame costs one syscall.
type frameWriter struct {
	mu   sync.Mutex
	conn net.Conn
	buf  []byte
}

// writeFrame writes [4B frameLen][8B id][kind][payload], where kind is the
// 2-byte method of a request or the 1-byte status of a response.
func (w *frameWriter) writeFrame(id uint64, kind, payload []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	buf := binary.LittleEndian.AppendUint32(w.buf[:0], uint32(8+len(kind)+len(payload)))
	buf = binary.LittleEndian.AppendUint64(buf, id)
	buf = append(buf, kind...)
	buf = append(buf, payload...)
	//jdvs:blocking-ok the mutex exists only to keep frames whole on the socket; it guards no other state
	_, err := w.conn.Write(buf)
	if cap(buf) <= maxKeptFrame {
		w.buf = buf
	}
	return err
}

// Reply is the outcome of one request issued with Client.Go.
type Reply struct {
	Tag     int // the tag handed to Go
	Payload []byte
	Err     error
}

// Client is a multiplexed connection to one server. It is safe for
// concurrent use.
type Client struct {
	conn net.Conn
	w    frameWriter

	mu      sync.Mutex
	pending map[uint64]pendingCall
	closed  bool
	err     error // what every call fails with once closed

	nextID atomic.Uint64
}

// pendingCall is where a request's reply goes.
type pendingCall struct {
	done   chan<- Reply
	tag    int
	method uint16
}

// Dial connects to addr.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rpc: dial %s: %w", addr, err)
	}
	return newClient(conn), nil
}

func newClient(conn net.Conn) *Client {
	c := &Client{
		conn:    conn,
		w:       frameWriter{conn: conn},
		pending: make(map[uint64]pendingCall),
	}
	go c.readLoop()
	return c
}

func (c *Client) readLoop() {
	var readErr error
	br := bufio.NewReader(c.conn)
	for {
		frame, err := readFrame(br)
		if err != nil {
			readErr = err
			break
		}
		if len(frame) < respHeader {
			readErr = errors.New("rpc: malformed response frame")
			break
		}
		reqID := binary.LittleEndian.Uint64(frame[0:8])
		c.mu.Lock()
		pc, ok := c.pending[reqID]
		if ok {
			delete(c.pending, reqID)
		}
		c.mu.Unlock()
		if !ok {
			continue // forgotten: the caller gave up on it
		}
		r := Reply{Tag: pc.tag}
		if payload := frame[respHeader:]; frame[8] == statusOK {
			r.Payload = payload
		} else {
			r.Err = &RemoteError{Method: pc.method, Msg: string(payload)}
		}
		pc.done <- r
	}
	c.failAll(readErr)
}

func (c *Client) failAll(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	if err == nil {
		err = ErrClosed
	}
	c.err = fmt.Errorf("%w (%v)", ErrClosed, err)
	for id, pc := range c.pending {
		delete(c.pending, id)
		//jdvs:blocking-ok every done channel has room for each reply still owed on it (Client.Go's contract), so this never blocks
		pc.done <- Reply{Tag: pc.tag, Err: c.err}
	}
	_ = c.conn.Close()
}

// Go sends a request without waiting for the response and returns its
// ID. Exactly one Reply carrying tag is delivered on done — the response,
// the handler's RemoteError, or the transport failure — unless Forget(id)
// withdraws the request first. The connection's reader delivers without
// blocking, so done must have room for every reply still owed on it: a
// full done channel stalls every call on this connection.
func (c *Client) Go(method uint16, payload []byte, tag int, done chan<- Reply) uint64 {
	id := c.nextID.Add(1)
	c.mu.Lock()
	if c.closed {
		err := c.err
		c.mu.Unlock()
		done <- Reply{Tag: tag, Err: err}
		return id
	}
	c.pending[id] = pendingCall{done: done, tag: tag, method: method}
	c.mu.Unlock()

	var m [2]byte
	binary.LittleEndian.PutUint16(m[:], method)
	if err := c.w.writeFrame(id, m[:], payload); err != nil {
		// Fails every pending call, this one included: its reply is the
		// write error.
		c.failAll(fmt.Errorf("rpc: write: %w", err))
	}
	return id
}

// Forget withdraws request id: a response that arrives for it later is
// dropped. It reports whether the reply was still owed; false means it has
// been, or is being, delivered on the request's done channel.
func (c *Client) Forget(id uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, owed := c.pending[id]
	delete(c.pending, id)
	return owed
}

// replySlots recycles Call's one-reply channels. A slot goes back empty:
// Call takes the single reply Go owes it, or forgets the request, and
// when Forget reports the reply already on its way, takes that reply too.
var replySlots = sync.Pool{New: func() any { return make(chan Reply, 1) }}

// Call sends a request and waits for its response or ctx cancellation.
func (c *Client) Call(ctx context.Context, method uint16, payload []byte) ([]byte, error) {
	done := replySlots.Get().(chan Reply)
	id := c.Go(method, payload, 0, done)
	var r Reply
	select {
	case r = <-done:
	case <-ctx.Done():
		if !c.Forget(id) {
			<-done
		}
		r = Reply{Err: ctx.Err()}
	}
	replySlots.Put(done)
	return r.Payload, r.Err
}

// Close tears the connection down; outstanding calls fail with ErrClosed.
func (c *Client) Close() {
	c.failAll(ErrClosed)
}

// Pool is a fixed-size set of clients to one address, dealt out
// round-robin. Searcher fan-in traffic is heavily concurrent; a small pool
// avoids head-of-line blocking on one TCP connection's write path.
type Pool struct {
	clients []*Client
	next    atomic.Uint64
}

// DialPool opens n connections to addr.
func DialPool(addr string, n int) (*Pool, error) {
	if n <= 0 {
		n = 1
	}
	p := &Pool{clients: make([]*Client, 0, n)}
	for i := 0; i < n; i++ {
		c, err := Dial(addr)
		if err != nil {
			p.Close()
			return nil, err
		}
		p.clients = append(p.clients, c)
	}
	return p, nil
}

// Next returns the next connection in round-robin order.
func (p *Pool) Next() *Client {
	// The modulo is computed in uint64 before any narrowing: converting the
	// counter to int first would go negative after 2³¹ calls on a 32-bit
	// platform and panic the index expression.
	return p.clients[p.next.Add(1)%uint64(len(p.clients))]
}

// Call issues the request on the next connection in round-robin order.
func (p *Pool) Call(ctx context.Context, method uint16, payload []byte) ([]byte, error) {
	return p.Next().Call(ctx, method, payload)
}

// Close closes every connection in the pool.
func (p *Pool) Close() {
	for _, c := range p.clients {
		if c != nil {
			c.Close()
		}
	}
}
