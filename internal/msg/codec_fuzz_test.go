package msg

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

// FuzzMsgDecode: decoding arbitrary bytes never panics and allocates in
// proportion to the input (a URL count the frame cannot back must fail
// before it sizes the URL slice), and whatever decodes passes Check and
// re-encodes to exactly the bytes it was decoded from.
func FuzzMsgDecode(f *testing.F) {
	for _, typ := range []Type{TypeAddProduct, TypeRemoveProduct, TypeUpdateAttrs} {
		u := sampleUpdate()
		u.Type = typ
		f.Add(u.Encode())
	}
	valid := sampleUpdate().Encode()
	f.Add(valid[:10])
	f.Add(valid[:len(valid)-3])
	f.Add(append(append([]byte(nil), valid...), 0))
	noURLs := sampleUpdate()
	noURLs.ImageURLs = nil
	f.Add(noURLs.Encode())
	long := sampleUpdate()
	long.ImageURLs = []string{strings.Repeat("u", 600)}
	f.Add(long.Encode())
	f.Fuzz(func(t *testing.T, b []byte) {
		var got *ProductUpdate
		var err error
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err = Decode(b)
		runtime.ReadMemStats(&after)
		// A constant for the event, plus one string header and at most the
		// input's bytes per URL, each URL taking at least two input bytes.
		if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10+16*uint64(len(b)) {
			t.Fatalf("decoding %d bytes allocated %d", len(b), n)
		}
		if err != nil {
			return
		}
		if err := got.Check(); err != nil {
			t.Fatalf("decoded event fails Check: %v", err)
		}
		if re := got.Encode(); !bytes.Equal(re, b) {
			t.Fatalf("re-encoding gives %x, not the input %x", re, b)
		}
	})
}
