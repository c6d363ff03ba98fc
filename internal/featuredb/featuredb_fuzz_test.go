package featuredb

import (
	"bytes"
	"testing"

	"jdvs/internal/core"
)

// FuzzDecodeEntry: decoding arbitrary stored bytes never panics, and an
// accepted record re-encodes to exactly the bytes it was decoded from — a
// record with bytes past the attribute block is rejected, not truncated.
func FuzzDecodeEntry(f *testing.F) {
	valid := encodeEntry(sampleEntry())
	f.Add(valid)
	f.Add(encodeEntry(&Entry{Attrs: core.Attrs{ProductID: 9}})) // TestEmptyFeature's record
	f.Add([]byte{1, 2})                                         // TestCorruptEntry's garbage
	f.Add(valid[:len(valid)-1])
	f.Add(append(append([]byte(nil), valid...), 0)) // one trailing byte
	f.Fuzz(func(t *testing.T, b []byte) {
		e, err := decodeEntry(b, "u")
		if err != nil {
			return
		}
		if e.Attrs.URL != "u" {
			t.Fatalf("URL %q, want the key", e.Attrs.URL)
		}
		if re := encodeEntry(e); !bytes.Equal(re, b) {
			t.Fatalf("re-encoding gives %x, not the input %x", re, b)
		}
	})
}
