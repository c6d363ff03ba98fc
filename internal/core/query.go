package core

import (
	"encoding/binary"
	"fmt"
)

// AllCategories is the CategoryScope value meaning "search every
// category". Category IDs start at 0, so the zero value of CategoryScope
// scopes to category 0 — always set CategoryScope explicitly (helpers in
// the public facade default it to AllCategories).
const AllCategories int32 = -1

// QueryRequest is the user-facing query carried from the front end to a
// blender: the raw query image plus retrieval parameters. The blender —
// not the client — extracts features ("when a blender receives an image
// query request, it extracts the features", §2.4).
type QueryRequest struct {
	// ImageBlob is the encoded query image.
	ImageBlob []byte
	// TopK is the number of final results wanted (default 10).
	TopK int
	// NProbe overrides the per-searcher probe width (0 = searcher default).
	NProbe int
	// CategoryScope restricts the search to the detected/declared category
	// when >= 0; pass -1 to search everything. When AutoCategory is set the
	// blender overrides this with its classifier's prediction.
	CategoryScope int32
	// AutoCategory asks the blender to detect the item and identify its
	// category (§2.4), then scope the search to it.
	AutoCategory bool
	// MinPriceCents / MaxPriceCents bound result prices, inclusive; 0
	// means unbounded on that side. MinSales is the minimum sales count.
	// Carried into the fanned-out SearchRequest and pushed down into the
	// shard scans ("find similar but cheaper", in-stock-only).
	MinPriceCents uint32
	MaxPriceCents uint32
	MinSales      uint32
}

// Query codec versions: v1 has no predicate fields (the blob length
// follows CategoryScope directly); v2 inserts the three predicate words
// before the blob length. Unlike the search-request codec, the query
// decode requires an exact blob length, so the extension needs a version
// bump — both layouts are accepted on decode.
const (
	queryCodecVersionV1 = 1
	queryCodecVersion   = 2
)

// maxQueryBlob bounds the decoded query image as a corruption guard.
const maxQueryBlob = 32 << 20

// EncodeQueryRequest serialises a QueryRequest (v2 layout).
func EncodeQueryRequest(q *QueryRequest) []byte {
	dst := make([]byte, 0, 30+len(q.ImageBlob))
	dst = append(dst, queryCodecVersion)
	var flags byte
	if q.AutoCategory {
		flags |= queryFlagAutoCategory
	}
	dst = append(dst, flags)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(q.TopK))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(q.NProbe))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(q.CategoryScope))
	dst = binary.LittleEndian.AppendUint32(dst, q.MinPriceCents)
	dst = binary.LittleEndian.AppendUint32(dst, q.MaxPriceCents)
	dst = binary.LittleEndian.AppendUint32(dst, q.MinSales)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(q.ImageBlob)))
	dst = append(dst, q.ImageBlob...)
	return dst
}

// queryFlagAutoCategory is the one defined bit of the query flags byte.
const queryFlagAutoCategory = 1

// DecodeQueryRequest deserialises a QueryRequest. Both the current (v2,
// predicate-bearing) and the legacy v1 layout are accepted; v1 queries
// decode with unbounded predicates. A flags byte with any bit but
// AutoCategory's set is rejected: dropping unknown bits would decode two
// different encodings to one value. The decoded ImageBlob aliases b, so
// b must not be modified while the request is in use.
func DecodeQueryRequest(b []byte) (*QueryRequest, error) {
	if len(b) < 18 || (b[0] != queryCodecVersion && b[0] != queryCodecVersionV1) {
		return nil, fmt.Errorf("%w: bad query header", ErrCodec)
	}
	if b[1]&^queryFlagAutoCategory != 0 {
		return nil, fmt.Errorf("%w: unknown query flags %#x", ErrCodec, b[1])
	}
	q := &QueryRequest{
		AutoCategory:  b[1]&queryFlagAutoCategory != 0,
		TopK:          int(binary.LittleEndian.Uint32(b[2:6])),
		NProbe:        int(binary.LittleEndian.Uint32(b[6:10])),
		CategoryScope: int32(binary.LittleEndian.Uint32(b[10:14])),
	}
	rest := b[14:]
	if b[0] == queryCodecVersion {
		if len(b) < 30 {
			return nil, fmt.Errorf("%w: short query header", ErrCodec)
		}
		q.MinPriceCents = binary.LittleEndian.Uint32(b[14:18])
		q.MaxPriceCents = binary.LittleEndian.Uint32(b[18:22])
		q.MinSales = binary.LittleEndian.Uint32(b[22:26])
		rest = b[26:]
	}
	n := int(binary.LittleEndian.Uint32(rest[0:4]))
	if n > maxQueryBlob {
		return nil, fmt.Errorf("%w: query blob %d bytes", ErrCodec, n)
	}
	if len(rest[4:]) != n {
		return nil, fmt.Errorf("%w: query blob length mismatch", ErrCodec)
	}
	q.ImageBlob = rest[4 : 4+n : 4+n]
	return q, nil
}
