package featuredb

import (
	"bytes"
	"testing"

	"jdvs/internal/core"
)

// FuzzDecodeEntry: decoding arbitrary stored bytes never panics, an
// accepted record re-encodes to exactly the bytes it was decoded from, and
// the same record with one byte more is rejected, not truncated.
func FuzzDecodeEntry(f *testing.F) {
	valid := core.AppendFeature(nil, sampleFeature)
	f.Add(valid)
	f.Add(core.AppendFeature(nil, nil)) // TestEmptyFeature's record
	f.Add([]byte{1, 2})                 // TestCorruptEntry's garbage
	f.Add(valid[:len(valid)-1])
	f.Add(append(append([]byte(nil), valid...), 0)) // one trailing byte
	f.Fuzz(func(t *testing.T, b []byte) {
		feature, err := decodeEntry(b, "u")
		if err != nil {
			return
		}
		if re := core.AppendFeature(nil, feature); !bytes.Equal(re, b) {
			t.Fatalf("re-encoding gives %x, not the input %x", re, b)
		}
		if _, err := decodeEntry(append(b[:len(b):len(b)], 0), "u"); err == nil {
			t.Fatal("a trailing byte was accepted")
		}
	})
}
