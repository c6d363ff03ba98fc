package rpc

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"
)

// allocated returns the bytes allocated while f runs.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadFrameBoundsAllocation: a length word claiming MaxFrame followed
// by a hang-up must not make the reader allocate MaxFrame.
func TestReadFrameBoundsAllocation(t *testing.T) {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], MaxFrame)
	br := bufio.NewReader(bytes.NewReader(hdr[:]))
	var err error
	if n := allocated(func() { _, err = readFrame(br) }); n >= 1<<20 {
		t.Fatalf("a bare MaxFrame header allocated %d bytes", n)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
	// A large frame that does arrive is read whole.
	body := bytes.Repeat([]byte{0xAB}, 3*frameStep+17)
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(body)))
	frame, err := readFrame(bufio.NewReader(io.MultiReader(bytes.NewReader(hdr[:]), bytes.NewReader(body))))
	if err != nil || !bytes.Equal(frame, body) {
		t.Fatalf("large frame: %d bytes, %v", len(frame), err)
	}
}

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// readExactly reads len(want) bytes from r and compares them with want.
func readExactly(t *testing.T, r io.Reader, want []byte, what string) {
	t.Helper()
	got := make([]byte, len(want))
	if _, err := io.ReadFull(r, got); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s on the wire:\n got %x\nwant %x", what, got, want)
	}
}

// TestWireGolden pins the exact bytes of a request frame and of an OK and
// an error response frame to the layout in the package doc: a framing
// change that moves a byte breaks every deployed peer.
func TestWireGolden(t *testing.T) {
	// Client side: request frame out, OK response frame in.
	cEnd, sEnd := net.Pipe()
	c := newClient(cEnd)
	defer c.Close()
	type result struct {
		payload []byte
		err     error
	}
	res := make(chan result, 1)
	go func() {
		p, err := c.Call(context.Background(), 0x0207, []byte("hi"))
		res <- result{p, err}
	}()
	_ = sEnd.SetDeadline(time.Now().Add(5 * time.Second))
	// [4B frameLen=12][8B requestID=1][2B method=0x0207]["hi"]
	readExactly(t, sEnd, mustHex(t, "0c000000"+"0100000000000000"+"0702"+"6869"), "request frame")
	// [4B frameLen=11][8B requestID=1][1B status=OK]["ok"]
	if _, err := sEnd.Write(mustHex(t, "0b000000"+"0100000000000000"+"00"+"6f6b")); err != nil {
		t.Fatal(err)
	}
	if r := <-res; r.err != nil || string(r.payload) != "ok" {
		t.Fatalf("Call = %q, %v", r.payload, r.err)
	}
	_ = sEnd.Close()

	// Server side: request frames in, OK and error response frames out.
	s := NewServer()
	s.Handle(7, func(p []byte) ([]byte, error) { return p, nil })
	s.Handle(8, func([]byte) ([]byte, error) { return nil, errors.New("no") })
	cEnd, sEnd = net.Pipe()
	s.wg.Add(1)
	go s.serveConn(sEnd)
	_ = cEnd.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := cEnd.Write(mustHex(t, "0c000000"+"0500000000000000"+"0700"+"6869")); err != nil {
		t.Fatal(err)
	}
	// [4B frameLen=11][8B requestID=5][1B status=OK]["hi"]
	readExactly(t, cEnd, mustHex(t, "0b000000"+"0500000000000000"+"00"+"6869"), "OK response frame")
	if _, err := cEnd.Write(mustHex(t, "0a000000"+"0600000000000000"+"0800")); err != nil {
		t.Fatal(err)
	}
	// [4B frameLen=11][8B requestID=6][1B status=error]["no"]
	readExactly(t, cEnd, mustHex(t, "0b000000"+"0600000000000000"+"01"+"6e6f"), "error response frame")
	_ = cEnd.Close()
	s.Close()
}

// FuzzReadFrame: any byte stream splits into frames without a panic and
// with allocation bounded by what actually arrived, and the frames read
// re-encode to exactly the bytes they were read from.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 0, 0, 1, 2, 3})                                              // TestShortFrame's frame
	f.Add(binary.LittleEndian.AppendUint32(nil, MaxFrame+1))                        // TestMalformedFrame's header
	f.Add(binary.LittleEndian.AppendUint32(nil, MaxFrame))                          // a bare maximal header
	f.Add([]byte("\x0c\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x07\x02hi"))     // TestWireGolden's request
	f.Add([]byte("\x0b\x00\x00\x00\x05\x00\x00\x00\x00\x00\x00\x00\x00hi\x00\x00")) // an OK response, then a torn one
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		frames := make([][]byte, 0, len(data)/4+1) // every frame takes a 4-byte length word
		n := allocated(func() {
			for {
				frame, err := readFrame(br)
				if err != nil {
					return
				}
				frames = append(frames, frame)
			}
		})
		if bound := 2*frameStep + 8*uint64(len(data)); n > bound {
			t.Fatalf("reading %d bytes allocated %d (bound %d)", len(data), n, bound)
		}
		var again []byte
		for _, fr := range frames {
			again = binary.LittleEndian.AppendUint32(again, uint32(len(fr)))
			again = append(again, fr...)
		}
		if !bytes.HasPrefix(data, again) {
			t.Fatalf("frames re-encode to %x, not a prefix of the input %x", again, data)
		}
	})
}
