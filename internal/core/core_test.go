package core

import (
	"math"
	"testing"
	"testing/quick"
)

func TestImageRefPackUnpack(t *testing.T) {
	tests := []ImageRef{
		{0, 0},
		{1, 2},
		{65535, 4294967295},
		{7, 123456},
	}
	for _, r := range tests {
		if got := UnpackImageRef(r.Pack()); got != r {
			t.Errorf("roundtrip %+v -> %+v", r, got)
		}
	}
}

func TestImageRefPackProperty(t *testing.T) {
	f := func(p uint16, l uint32) bool {
		r := ImageRef{Partition: PartitionID(p), Local: l}
		return UnpackImageRef(r.Pack()) == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFeatureCodecRoundtrip(t *testing.T) {
	tests := [][]float32{
		nil,
		{},
		{1.5},
		{0, -1, 2.25, float32(math.Pi), -0.00001},
	}
	for _, f := range tests {
		enc := AppendFeature(nil, f)
		got, rest, err := DecodeFeature(enc)
		if err != nil {
			t.Fatalf("decode %v: %v", f, err)
		}
		if len(rest) != 0 {
			t.Fatalf("leftover bytes: %d", len(rest))
		}
		if len(got) != len(f) {
			t.Fatalf("dim %d, want %d", len(got), len(f))
		}
		for i := range f {
			if got[i] != f[i] {
				t.Fatalf("component %d: %v != %v", i, got[i], f[i])
			}
		}
	}
}

func TestFeatureCodecCorruption(t *testing.T) {
	enc := AppendFeature(nil, []float32{1, 2, 3})
	for _, cut := range []int{0, 2, 5, len(enc) - 1} {
		if _, _, err := DecodeFeature(enc[:cut]); err == nil {
			t.Errorf("truncated feature (%d bytes) accepted", cut)
		}
	}
	// Oversized dim header.
	huge := AppendFeature(nil, nil)
	huge[0], huge[1], huge[2], huge[3] = 0xff, 0xff, 0xff, 0x7f
	if _, _, err := DecodeFeature(huge); err == nil {
		t.Error("absurd feature dim accepted")
	}
}

func sampleRequest() *SearchRequest {
	return &SearchRequest{
		Feature:       []float32{0.1, -0.5, 0.25, 1},
		TopK:          15,
		NProbe:        4,
		Category:      -1,
		MinPriceCents: 500,
		MaxPriceCents: 9900,
		MinSales:      3,
	}
}

// encodeSearchRequestLegacy emits the pre-predicate (PR ≤ 6) layout:
// identical version byte, 12-byte tail ending at Category.
func encodeSearchRequestLegacy(r *SearchRequest) []byte {
	dst := []byte{reqCodecVersion}
	dst = AppendFeature(dst, r.Feature)
	dst = appendU32(dst, uint32(r.TopK))
	dst = appendU32(dst, uint32(r.NProbe))
	return appendU32(dst, uint32(r.Category))
}

func appendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func TestSearchRequestRoundtrip(t *testing.T) {
	req := sampleRequest()
	got, err := DecodeSearchRequest(EncodeSearchRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	if got.TopK != req.TopK || got.NProbe != req.NProbe || got.Category != req.Category {
		t.Fatalf("roundtrip: %+v vs %+v", got, req)
	}
	for i := range req.Feature {
		if got.Feature[i] != req.Feature[i] {
			t.Fatal("feature corrupted")
		}
	}
	// Negative category survives the uint32 transit.
	if got.Category != -1 {
		t.Fatalf("Category = %d, want -1", got.Category)
	}
	// Predicates survive the transit.
	if got.MinPriceCents != 500 || got.MaxPriceCents != 9900 || got.MinSales != 3 {
		t.Fatalf("predicates corrupted: %+v", got)
	}
}

// TestSearchRequestLegacyDecode: a request encoded by a pre-predicate
// binary must decode with unbounded predicates, and a predicate-bearing
// encoding truncated to the legacy tail (what an old decoder effectively
// reads) must still parse the base fields — the two directions of the
// version-1 tail-extension compatibility scheme.
func TestSearchRequestLegacyDecode(t *testing.T) {
	req := sampleRequest()
	got, err := DecodeSearchRequest(encodeSearchRequestLegacy(req))
	if err != nil {
		t.Fatal(err)
	}
	if got.TopK != req.TopK || got.NProbe != req.NProbe || got.Category != req.Category {
		t.Fatalf("legacy decode mangled base fields: %+v", got)
	}
	if got.HasPredicates() {
		t.Fatalf("legacy request decoded with predicates: %+v", got)
	}
	// New encoding cut at the legacy tail boundary (12 bytes after the
	// feature) — the prefix an old reader consumes — still parses.
	enc := EncodeSearchRequest(req)
	got, err = DecodeSearchRequest(enc[:len(enc)-12])
	if err != nil {
		t.Fatal(err)
	}
	if got.TopK != req.TopK || got.Category != req.Category || got.HasPredicates() {
		t.Fatalf("legacy-prefix decode mangled fields: %+v", got)
	}
}

func TestSearchRequestCorruption(t *testing.T) {
	enc := EncodeSearchRequest(sampleRequest())
	if _, err := DecodeSearchRequest(nil); err == nil {
		t.Error("nil accepted")
	}
	// Cutting into the mandatory 12-byte base tail must fail (the 12-byte
	// predicate extension itself is optional, so cut past it too).
	if _, err := DecodeSearchRequest(enc[:len(enc)-15]); err == nil {
		t.Error("truncated request accepted")
	}
	bad := append([]byte{42}, enc[1:]...)
	if _, err := DecodeSearchRequest(bad); err == nil {
		t.Error("bad version accepted")
	}
}

func TestSearchRequestPredicateHelpers(t *testing.T) {
	r := &SearchRequest{Category: -1}
	if r.HasPredicates() {
		t.Fatal("zero request claims predicates")
	}
	if !r.MatchesAttrs(0, 0) || !r.AdmitsHit(&Hit{Category: 9}) {
		t.Fatal("unbounded request rejected an item")
	}
	r = &SearchRequest{Category: 2, MinPriceCents: 100, MaxPriceCents: 200, MinSales: 5}
	cases := []struct {
		sales, price uint32
		want         bool
	}{
		{5, 100, true},
		{5, 200, true},
		{4, 150, false}, // sales below minimum
		{9, 99, false},  // price below band
		{9, 201, false}, // price above band
	}
	for _, c := range cases {
		if got := r.MatchesAttrs(c.sales, c.price); got != c.want {
			t.Errorf("MatchesAttrs(%d, %d) = %v, want %v", c.sales, c.price, got, c.want)
		}
	}
	if r.AdmitsHit(&Hit{Category: 3, Sales: 9, PriceCents: 150}) {
		t.Error("AdmitsHit ignored the category scope")
	}
	if !r.AdmitsHit(&Hit{Category: 2, Sales: 9, PriceCents: 150}) {
		t.Error("AdmitsHit rejected a conforming hit")
	}
}

func sampleResponse() *SearchResponse {
	return &SearchResponse{
		Scanned: 123,
		Probed:  8,
		Hits: []Hit{
			{
				Image:      ImageRef{3, 77},
				Dist:       0.25,
				ProductID:  999,
				Sales:      10,
				Praise:     95,
				PriceCents: 12999,
				Category:   4,
				URL:        "jfs://img/p999/0.jpg",
				Score:      0.87,
			},
			{Image: ImageRef{0, 1}, Dist: 1.5, ProductID: 5, URL: ""},
		},
	}
}

func TestSearchResponseRoundtrip(t *testing.T) {
	resp := sampleResponse()
	got, err := DecodeSearchResponse(EncodeSearchResponse(resp))
	if err != nil {
		t.Fatal(err)
	}
	if got.Scanned != resp.Scanned || got.Probed != resp.Probed || len(got.Hits) != len(resp.Hits) {
		t.Fatalf("header mismatch: %+v", got)
	}
	for i := range resp.Hits {
		if got.Hits[i] != resp.Hits[i] {
			t.Fatalf("hit %d: %+v vs %+v", i, got.Hits[i], resp.Hits[i])
		}
	}
}

func TestSearchResponseEmpty(t *testing.T) {
	got, err := DecodeSearchResponse(EncodeSearchResponse(&SearchResponse{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Hits) != 0 {
		t.Fatalf("hits = %v", got.Hits)
	}
}

func TestSearchResponseCorruption(t *testing.T) {
	enc := EncodeSearchResponse(sampleResponse())
	for _, cut := range []int{0, 5, 13, 20, len(enc) - 1} {
		if _, err := DecodeSearchResponse(enc[:cut]); err == nil {
			t.Errorf("truncated response (%d bytes) accepted", cut)
		}
	}
}

// Property: response codec is identity for arbitrary hits.
func TestSearchResponseRoundtripProperty(t *testing.T) {
	f := func(part uint16, local uint32, dist float32, pid uint64, sales, praise, price uint32, cat uint16, url string, score float64) bool {
		if len(url) > 4096 {
			url = url[:4096]
		}
		if dist != dist || score != score { // skip NaN: != comparison below would fail spuriously
			return true
		}
		resp := &SearchResponse{Hits: []Hit{{
			Image: ImageRef{PartitionID(part), local}, Dist: dist, ProductID: pid,
			Sales: sales, Praise: praise, PriceCents: price, Category: cat, URL: url, Score: score,
		}}}
		got, err := DecodeSearchResponse(EncodeSearchResponse(resp))
		if err != nil || len(got.Hits) != 1 {
			return false
		}
		return got.Hits[0] == resp.Hits[0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestDecodeQueryRequestAliasesBlob checks that the decoded blob is the
// tail of the frame, not a copy, and that appending to it cannot write
// into the frame's spare capacity (rpc frames often have some).
func TestDecodeQueryRequestAliasesBlob(t *testing.T) {
	blob := []byte{1, 2, 3, 4, 5}
	enc := EncodeQueryRequest(&QueryRequest{ImageBlob: blob, TopK: 6})
	frame := append(make([]byte, 0, len(enc)+16), enc...)
	got, err := DecodeQueryRequest(frame)
	if err != nil {
		t.Fatal(err)
	}
	if &got.ImageBlob[0] != &frame[len(frame)-len(blob)] {
		t.Fatal("ImageBlob is a copy of the frame's tail")
	}
	if cap(got.ImageBlob) != len(blob) {
		t.Fatalf("ImageBlob cap %d reaches past the blob (len %d)", cap(got.ImageBlob), len(blob))
	}
}

func TestQueryRequestRoundtrip(t *testing.T) {
	q := &QueryRequest{
		ImageBlob:     []byte{1, 2, 3, 4, 5},
		TopK:          6,
		NProbe:        3,
		CategoryScope: AllCategories,
		AutoCategory:  true,
	}
	got, err := DecodeQueryRequest(EncodeQueryRequest(q))
	if err != nil {
		t.Fatal(err)
	}
	if got.TopK != q.TopK || got.NProbe != q.NProbe ||
		got.CategoryScope != q.CategoryScope || got.AutoCategory != q.AutoCategory {
		t.Fatalf("roundtrip: %+v vs %+v", got, q)
	}
	if string(got.ImageBlob) != string(q.ImageBlob) {
		t.Fatal("blob corrupted")
	}
}

// TestQueryRequestPredicatesRoundtrip: the v2 fields survive the codec.
func TestQueryRequestPredicatesRoundtrip(t *testing.T) {
	q := &QueryRequest{
		ImageBlob:     []byte("blob"),
		TopK:          4,
		CategoryScope: 7,
		MinPriceCents: 1000,
		MaxPriceCents: 5000,
		MinSales:      12,
	}
	got, err := DecodeQueryRequest(EncodeQueryRequest(q))
	if err != nil {
		t.Fatal(err)
	}
	if got.MinPriceCents != 1000 || got.MaxPriceCents != 5000 || got.MinSales != 12 {
		t.Fatalf("predicates corrupted: %+v", got)
	}
	if got.CategoryScope != 7 || string(got.ImageBlob) != "blob" {
		t.Fatalf("base fields corrupted: %+v", got)
	}
}

// TestQueryRequestV1Decode: a legacy v1 query payload (hand-built to the
// old layout) still decodes, with unbounded predicates.
func TestQueryRequestV1Decode(t *testing.T) {
	blob := []byte{9, 8, 7}
	enc := []byte{queryCodecVersionV1, 1} // version, flags (AutoCategory)
	enc = appendU32(enc, 25)              // TopK
	enc = appendU32(enc, 6)               // NProbe
	scope := AllCategories
	enc = appendU32(enc, uint32(scope))
	enc = appendU32(enc, uint32(len(blob)))
	enc = append(enc, blob...)
	q, err := DecodeQueryRequest(enc)
	if err != nil {
		t.Fatal(err)
	}
	if q.TopK != 25 || q.NProbe != 6 || q.CategoryScope != AllCategories || !q.AutoCategory {
		t.Fatalf("v1 decode mangled base fields: %+v", q)
	}
	if q.MinPriceCents != 0 || q.MaxPriceCents != 0 || q.MinSales != 0 {
		t.Fatalf("v1 decode invented predicates: %+v", q)
	}
	if string(q.ImageBlob) != string(blob) {
		t.Fatal("v1 blob corrupted")
	}
}

func TestQueryRequestCorruption(t *testing.T) {
	enc := EncodeQueryRequest(&QueryRequest{ImageBlob: []byte("img"), TopK: 1})
	if _, err := DecodeQueryRequest(enc[:10]); err == nil {
		t.Error("truncated query accepted")
	}
	if _, err := DecodeQueryRequest(append(enc, 0xff)); err == nil {
		t.Error("over-long query accepted")
	}
	unknown := append([]byte(nil), enc...)
	unknown[1] |= 0x02
	if _, err := DecodeQueryRequest(unknown); err == nil {
		t.Error("unknown flag bit accepted")
	}
}

// Property: decoding arbitrary bytes never panics for any codec.
func TestDecodersNeverPanic(t *testing.T) {
	f := func(b []byte) bool {
		_, _, _ = DecodeFeature(b)
		_, _ = DecodeSearchRequest(b)
		_, _ = DecodeSearchResponse(b)
		_, _ = DecodeQueryRequest(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
