package core

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"testing"
)

// allocBound is how many bytes a decoder may allocate for an input of n
// bytes: a constant for the result's headers plus a small multiple of the
// input. A length field the input cannot back must fail before it sizes
// an allocation.
func allocBound(n int) uint64 { return 64<<10 + 8*uint64(n) }

// allocated returns the bytes allocated while f runs.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func sameFeature(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// FuzzDecodeSearchRequest: decoding arbitrary bytes never panics and
// allocates in proportion to the input, and whatever decodes re-encodes
// to a request that decodes to the same value.
func FuzzDecodeSearchRequest(f *testing.F) {
	req := sampleRequest()
	enc := EncodeSearchRequest(req)
	f.Add(enc)
	f.Add(encodeSearchRequestLegacy(req))
	f.Add(enc[:len(enc)-12])
	f.Add(enc[:len(enc)-15])
	f.Add(append([]byte{42}, enc[1:]...))
	f.Add(EncodeSearchRequest(&SearchRequest{Feature: make([]float32, 64), TopK: 30, NProbe: 8, Category: -1}))
	f.Fuzz(func(t *testing.T, b []byte) {
		var got *SearchRequest
		var err error
		if n := allocated(func() { got, err = DecodeSearchRequest(b) }); n > allocBound(len(b)) {
			t.Fatalf("decoding %d bytes allocated %d", len(b), n)
		}
		if err != nil {
			return
		}
		again, err := DecodeSearchRequest(EncodeSearchRequest(got))
		if err != nil {
			t.Fatalf("re-encoded request does not decode: %v", err)
		}
		if !sameFeature(again.Feature, got.Feature) {
			t.Fatal("feature changed in the round trip")
		}
		if again.TopK != got.TopK || again.NProbe != got.NProbe || again.Category != got.Category ||
			again.MinPriceCents != got.MinPriceCents || again.MaxPriceCents != got.MaxPriceCents || again.MinSales != got.MinSales {
			t.Fatalf("round trip: %+v, want %+v", *again, *got)
		}
	})
}

// FuzzDecodeQueryRequest: decoding arbitrary bytes never panics and
// allocates in proportion to the input, and whatever decodes re-encodes
// (always in the current layout) to a query that decodes to the same
// value — to exactly the input bytes when the input was already current.
func FuzzDecodeQueryRequest(f *testing.F) {
	q := &QueryRequest{ImageBlob: []byte{1, 2, 3, 4, 5}, TopK: 6, NProbe: 3, CategoryScope: AllCategories, AutoCategory: true}
	enc := EncodeQueryRequest(q)
	f.Add(enc)
	f.Add(EncodeQueryRequest(&QueryRequest{ImageBlob: []byte("blob"), TopK: 4, CategoryScope: 7, MinPriceCents: 1000, MaxPriceCents: 5000, MinSales: 12}))
	v1 := []byte{queryCodecVersionV1, 1, 25, 0, 0, 0, 6, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 3, 0, 0, 0, 9, 8, 7}
	f.Add(v1)
	f.Add(enc[:10])
	f.Add(append(append([]byte(nil), enc...), 0xff))
	unknown := append([]byte(nil), enc...)
	unknown[1] |= 0x02
	f.Add(unknown)
	f.Fuzz(func(t *testing.T, b []byte) {
		var got *QueryRequest
		var err error
		if n := allocated(func() { got, err = DecodeQueryRequest(b) }); n > allocBound(len(b)) {
			t.Fatalf("decoding %d bytes allocated %d", len(b), n)
		}
		if err != nil {
			return
		}
		re := EncodeQueryRequest(got)
		if b[0] == queryCodecVersion && !bytes.Equal(re, b) {
			t.Fatalf("re-encoding gives %x, not the input %x", re, b)
		}
		again, err := DecodeQueryRequest(re)
		if err != nil {
			t.Fatalf("re-encoded query does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, got) {
			t.Fatalf("round trip: %+v, want %+v", *again, *got)
		}
	})
}

// FuzzDecodeSearchResponse: decoding arbitrary bytes never panics and
// allocates in proportion to the input, and whatever decodes re-encodes
// to exactly the bytes it was decoded from.
func FuzzDecodeSearchResponse(f *testing.F) {
	enc := EncodeSearchResponse(sampleResponse())
	f.Add(enc)
	f.Add(EncodeSearchResponse(&SearchResponse{}))
	for _, cut := range []int{0, 5, 13, 20, len(enc) - 1} {
		f.Add(enc[:cut])
	}
	page := &SearchResponse{Scanned: 2000, Probed: 8}
	for i := 0; i < 30; i++ {
		page.Hits = append(page.Hits, Hit{Image: ImageRef{3, uint32(i)}, Dist: float32(i), ProductID: uint64(i), URL: "jfs://img/p/0.jpg"})
	}
	f.Add(EncodeSearchResponse(page))
	f.Fuzz(func(t *testing.T, b []byte) {
		var got *SearchResponse
		var err error
		if n := allocated(func() { got, err = DecodeSearchResponse(b) }); n > allocBound(len(b)) {
			t.Fatalf("decoding %d bytes allocated %d", len(b), n)
		}
		if err != nil {
			return
		}
		if re := EncodeSearchResponse(got); !bytes.HasPrefix(b, re) {
			t.Fatalf("re-encoding gives %x, not a prefix of the input %x", re, b)
		}
	})
}
