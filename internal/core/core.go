// Package core defines the stable types shared across the indexing and
// search tiers: image references, product attributes, search requests and
// results, and their compact binary codecs used on the wire and in the
// feature database.
//
// Keeping these in one leaf package lets every tier (forward index,
// searcher, broker, blender, feature DB) agree on representation without
// import cycles.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// PartitionID identifies one index partition. The entire image index is
// "divided into multiple partitions by hashing the image's URL" (§2.4); a
// partition is owned by a single searcher node.
type PartitionID uint16

// ImageID is the sequential number of an image within one partition's
// forward index.
type ImageID = uint32

// ImageRef globally identifies an image: which partition it lives in and
// its sequential ID there.
type ImageRef struct {
	Partition PartitionID
	Local     ImageID
}

// Pack encodes the reference into one uint64 for use as a top-k item ID.
func (r ImageRef) Pack() uint64 {
	return uint64(r.Partition)<<32 | uint64(r.Local)
}

// UnpackImageRef reverses ImageRef.Pack.
func UnpackImageRef(v uint64) ImageRef {
	return ImageRef{Partition: PartitionID(v >> 32), Local: uint32(v)}
}

// Attrs is the set of product attributes carried by each image record: the
// numeric fields the paper stores in fixed-length forward index slots
// (product ID, sales, praise, price, category) plus the variable-length
// image URL kept in the side buffer.
type Attrs struct {
	ProductID  uint64
	Sales      uint32
	Praise     uint32
	PriceCents uint32
	Category   uint16
	URL        string
}

// Hit is one search result: an image reference, its feature-space distance
// to the query, the owning product's attributes, and the final blended
// ranking score assigned by the blender.
type Hit struct {
	Image      ImageRef
	Dist       float32
	ProductID  uint64
	Sales      uint32
	Praise     uint32
	PriceCents uint32
	Category   uint16
	URL        string
	Score      float64
}

// SearchRequest is the query fanned out from blender to brokers to
// searchers: the query image's extracted feature vector plus retrieval
// parameters.
type SearchRequest struct {
	// Feature is the query feature vector.
	Feature []float32
	// TopK is the number of nearest images each searcher returns.
	TopK int
	// NProbe is the number of inverted lists to probe per searcher.
	NProbe int
	// Category restricts results to one product category when >= 0.
	Category int32
	// MinPriceCents / MaxPriceCents bound the hit's price, inclusive; 0
	// means unbounded on that side. MinSales is the minimum sales count a
	// hit must carry. Searchers push these predicates down into the shard
	// scan (bitmap admission) rather than post-filtering the top-k, so
	// selective filters still return a full result page.
	MinPriceCents uint32
	MaxPriceCents uint32
	MinSales      uint32
}

// HasPredicates reports whether any attribute predicate (price band,
// minimum sales) is set. The category scope is not counted here: shards
// maintain per-category bitmaps and handle it separately from the
// forward-materialised predicate bitmaps.
func (r *SearchRequest) HasPredicates() bool {
	return r.MinPriceCents > 0 || r.MaxPriceCents > 0 || r.MinSales > 0
}

// MatchesAttrs reports whether an image with the given sales and price
// passes the request's attribute predicates — the single definition shared
// by the shard scan's bitmap build / tail fallback and the blender's
// post-merge re-check.
func (r *SearchRequest) MatchesAttrs(sales, price uint32) bool {
	if sales < r.MinSales {
		return false
	}
	if price < r.MinPriceCents {
		return false
	}
	if r.MaxPriceCents > 0 && price > r.MaxPriceCents {
		return false
	}
	return true
}

// AdmitsHit reports whether a hit passes both the category scope and the
// attribute predicates, as carried in the hit's own attribute copy.
func (r *SearchRequest) AdmitsHit(h *Hit) bool {
	if r.Category >= 0 && int32(h.Category) != r.Category {
		return false
	}
	return r.MatchesAttrs(h.Sales, h.PriceCents)
}

// SearchResponse carries a partial (searcher/broker) or final (blender)
// result set plus scan diagnostics.
type SearchResponse struct {
	Hits []Hit
	// Scanned is the number of candidate images whose distances were
	// computed: on the exact path the admitted candidates, on the ADC path
	// (either code width) every code in the probed lists — codes are
	// scored a block at a time before admission is consulted; on a
	// filtered query's exact plan every admitted row. Probed is the number
	// of inverted lists visited — 0 on the exact plan.
	Scanned int
	Probed  int
}

const (
	reqCodecVersion  = 1
	respCodecVersion = 1
	// MaxFeatureDim bounds decoded feature vectors as a corruption guard,
	// and with them a shard's Dim, since a query must be able to reach it.
	MaxFeatureDim = 1 << 12
	// MaxHits bounds decoded hit lists as a corruption guard.
	MaxHits = 1 << 20
)

var (
	// ErrCodec is wrapped by all decoding errors in this package.
	ErrCodec = errors.New("core: codec error")
)

// AppendFeature appends the binary encoding of a feature vector to dst.
func AppendFeature(dst []byte, f []float32) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f)))
	for _, v := range f {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
	}
	return dst
}

// DecodeFeature decodes a feature vector from b, returning the vector and
// the remaining bytes.
func DecodeFeature(b []byte) ([]float32, []byte, error) {
	if len(b) < 4 {
		return nil, nil, fmt.Errorf("%w: short feature header", ErrCodec)
	}
	n := int(binary.LittleEndian.Uint32(b))
	if n > MaxFeatureDim {
		return nil, nil, fmt.Errorf("%w: feature dim %d too large", ErrCodec, n)
	}
	b = b[4:]
	if len(b) < 4*n {
		return nil, nil, fmt.Errorf("%w: short feature body", ErrCodec)
	}
	f := make([]float32, n)
	for i := range f {
		f[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return f, b[4*n:], nil
}

// EncodeSearchRequest serialises a SearchRequest. The predicate fields
// ride as a 12-byte tail extension under the same version byte: decoders
// up to PR 6 read only the first 12 tail bytes and ignore the rest, so a
// predicate-bearing request still parses on an older searcher (which
// simply does not filter — the blender's post-merge re-check covers it),
// and an older request decodes here with zeroed (unbounded) predicates.
func EncodeSearchRequest(r *SearchRequest) []byte {
	dst := make([]byte, 0, 29+4*len(r.Feature))
	dst = append(dst, reqCodecVersion)
	dst = AppendFeature(dst, r.Feature)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.TopK))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.NProbe))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.Category))
	dst = binary.LittleEndian.AppendUint32(dst, r.MinPriceCents)
	dst = binary.LittleEndian.AppendUint32(dst, r.MaxPriceCents)
	dst = binary.LittleEndian.AppendUint32(dst, r.MinSales)
	return dst
}

// DecodeSearchRequest deserialises a SearchRequest; a legacy 12-byte tail
// (no predicate extension) decodes with unbounded predicates.
func DecodeSearchRequest(b []byte) (*SearchRequest, error) {
	if len(b) < 1 || b[0] != reqCodecVersion {
		return nil, fmt.Errorf("%w: bad request version", ErrCodec)
	}
	f, rest, err := DecodeFeature(b[1:])
	if err != nil {
		return nil, err
	}
	if len(rest) < 12 {
		return nil, fmt.Errorf("%w: short request tail", ErrCodec)
	}
	r := &SearchRequest{
		Feature:  f,
		TopK:     int(binary.LittleEndian.Uint32(rest[0:4])),
		NProbe:   int(binary.LittleEndian.Uint32(rest[4:8])),
		Category: int32(binary.LittleEndian.Uint32(rest[8:12])),
	}
	if len(rest) >= 24 {
		r.MinPriceCents = binary.LittleEndian.Uint32(rest[12:16])
		r.MaxPriceCents = binary.LittleEndian.Uint32(rest[16:20])
		r.MinSales = binary.LittleEndian.Uint32(rest[20:24])
	}
	return r, nil
}

// EncodeSearchResponse serialises a SearchResponse.
func EncodeSearchResponse(r *SearchResponse) []byte {
	size := 13
	for i := range r.Hits {
		size += 44 + len(r.Hits[i].URL)
	}
	dst := make([]byte, 0, size)
	dst = append(dst, respCodecVersion)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.Scanned))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.Probed))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Hits)))
	for i := range r.Hits {
		h := &r.Hits[i]
		dst = binary.LittleEndian.AppendUint64(dst, h.Image.Pack())
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(h.Dist))
		dst = binary.LittleEndian.AppendUint64(dst, h.ProductID)
		dst = binary.LittleEndian.AppendUint32(dst, h.Sales)
		dst = binary.LittleEndian.AppendUint32(dst, h.Praise)
		dst = binary.LittleEndian.AppendUint32(dst, h.PriceCents)
		dst = binary.LittleEndian.AppendUint16(dst, h.Category)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(h.Score))
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(h.URL)))
		dst = append(dst, h.URL...)
	}
	return dst
}

// DecodeSearchResponse deserialises a SearchResponse.
func DecodeSearchResponse(b []byte) (*SearchResponse, error) {
	if len(b) < 13 || b[0] != respCodecVersion {
		return nil, fmt.Errorf("%w: bad response header", ErrCodec)
	}
	resp := &SearchResponse{
		Scanned: int(binary.LittleEndian.Uint32(b[1:5])),
		Probed:  int(binary.LittleEndian.Uint32(b[5:9])),
	}
	n := int(binary.LittleEndian.Uint32(b[9:13]))
	if n > MaxHits {
		return nil, fmt.Errorf("%w: hit count %d too large", ErrCodec, n)
	}
	b = b[13:]
	// Every hit takes at least 44 bytes: a count the payload cannot hold is
	// rejected before it sizes the allocation.
	if n > len(b)/44 {
		return nil, fmt.Errorf("%w: %d hits cannot fit in %d bytes", ErrCodec, n, len(b))
	}
	resp.Hits = make([]Hit, 0, n)
	for i := 0; i < n; i++ {
		if len(b) < 44 {
			return nil, fmt.Errorf("%w: short hit", ErrCodec)
		}
		var h Hit
		ref := binary.LittleEndian.Uint64(b[0:8])
		if ref>>48 != 0 {
			// Pack never sets these bits; a word that does is corrupt, and
			// Unpack would drop them silently.
			return nil, fmt.Errorf("%w: image reference %#x out of range", ErrCodec, ref)
		}
		h.Image = UnpackImageRef(ref)
		h.Dist = math.Float32frombits(binary.LittleEndian.Uint32(b[8:12]))
		h.ProductID = binary.LittleEndian.Uint64(b[12:20])
		h.Sales = binary.LittleEndian.Uint32(b[20:24])
		h.Praise = binary.LittleEndian.Uint32(b[24:28])
		h.PriceCents = binary.LittleEndian.Uint32(b[28:32])
		h.Category = binary.LittleEndian.Uint16(b[32:34])
		h.Score = math.Float64frombits(binary.LittleEndian.Uint64(b[34:42]))
		urlLen := int(binary.LittleEndian.Uint16(b[42:44]))
		b = b[44:]
		if len(b) < urlLen {
			return nil, fmt.Errorf("%w: short hit url", ErrCodec)
		}
		h.URL = string(b[:urlLen])
		b = b[urlLen:]
		resp.Hits = append(resp.Hits, h)
	}
	return resp, nil
}
