// Package msg defines the product/image update events that flow through the
// message queue into both indexing paths (Figs. 2 and 4): product addition,
// product removal, and numeric attribute modification.
//
// Events use a compact versioned binary encoding; a day's worth of events
// (about one billion in production, §1) is buffered in the message log and
// replayed by the weekly full indexing, so the codec is designed for
// sequential streaming.
package msg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Type enumerates update event kinds (Fig. 6). Values start at 1 so the
// zero value is invalid and corrupt frames are caught.
type Type uint8

const (
	// TypeAddProduct lists a product (possibly one previously removed from
	// the market, in which case its images' features are reused, §2.3).
	TypeAddProduct Type = iota + 1
	// TypeRemoveProduct takes a product off the market: every image's
	// validity bit flips to 0 (§2.3 "Deletion").
	TypeRemoveProduct
	// TypeUpdateAttrs modifies a product's numeric attributes in place
	// (§2.3 "Update").
	TypeUpdateAttrs
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case TypeAddProduct:
		return "add-product"
	case TypeRemoveProduct:
		return "remove-product"
	case TypeUpdateAttrs:
		return "update-attrs"
	default:
		return fmt.Sprintf("msg.Type(%d)", uint8(t))
	}
}

// ProductUpdate is one update event about a product and its images.
type ProductUpdate struct {
	Type      Type
	ProductID uint64
	Category  uint16
	Sales     uint32
	Praise    uint32
	// PriceCents is the product price in integer cents, following the
	// guides' advice to avoid floats for money.
	PriceCents uint32
	// ImageURLs lists the product's images. Present for additions; empty
	// for attribute updates and removals (the index resolves the product's
	// images itself).
	ImageURLs []string
	// EventTimeNanos is the event's origin timestamp (Unix nanoseconds),
	// used to measure real-time indexing latency end to end.
	EventTimeNanos int64
	// Seq is the event's sequence number within its day, assigned by the
	// producer; full indexing replays events in Seq order.
	Seq uint64
}

const codecVersion = 1

// ErrCodec is wrapped by all decode failures.
var ErrCodec = errors.New("msg: codec error")

// MaxURLBytes is the longest image URL an event can carry: the codec
// writes each URL's length as a uint16.
const MaxURLBytes = math.MaxUint16

// maxURLs is the most image URLs one event can carry: the codec writes the
// count as a uint16.
const maxURLs = math.MaxUint16

// Check reports whether Encode represents u exactly: at most maxURLs image
// URLs, none longer than MaxURLBytes. Encode truncates the length fields
// of an event that fails it, so a producer must check first.
func (u *ProductUpdate) Check() error {
	if len(u.ImageURLs) > maxURLs {
		return fmt.Errorf("%w: %d urls, at most %d encode", ErrCodec, len(u.ImageURLs), maxURLs)
	}
	for _, s := range u.ImageURLs {
		if len(s) > MaxURLBytes {
			return fmt.Errorf("%w: %d-byte url, at most %d encode", ErrCodec, len(s), MaxURLBytes)
		}
	}
	return nil
}

// Encode serialises the event, which must pass Check.
func (u *ProductUpdate) Encode() []byte {
	size := 1 + 1 + 8 + 2 + 4 + 4 + 4 + 8 + 8 + 2
	for _, s := range u.ImageURLs {
		size += 2 + len(s)
	}
	dst := make([]byte, 0, size)
	dst = append(dst, codecVersion, byte(u.Type))
	dst = binary.LittleEndian.AppendUint64(dst, u.ProductID)
	dst = binary.LittleEndian.AppendUint16(dst, u.Category)
	dst = binary.LittleEndian.AppendUint32(dst, u.Sales)
	dst = binary.LittleEndian.AppendUint32(dst, u.Praise)
	dst = binary.LittleEndian.AppendUint32(dst, u.PriceCents)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(u.EventTimeNanos))
	dst = binary.LittleEndian.AppendUint64(dst, u.Seq)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(u.ImageURLs)))
	for _, s := range u.ImageURLs {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
		dst = append(dst, s...)
	}
	return dst
}

// Decode deserialises an event produced by Encode. The frame must be
// exactly one event: trailing bytes are rejected, so every accepted frame
// is the encoding of the event it decodes to.
func Decode(b []byte) (*ProductUpdate, error) {
	if len(b) < 42 {
		return nil, fmt.Errorf("%w: frame too short (%d bytes)", ErrCodec, len(b))
	}
	if b[0] != codecVersion {
		return nil, fmt.Errorf("%w: unknown version %d", ErrCodec, b[0])
	}
	u := &ProductUpdate{Type: Type(b[1])}
	switch u.Type {
	case TypeAddProduct, TypeRemoveProduct, TypeUpdateAttrs:
	default:
		return nil, fmt.Errorf("%w: unknown event type %d", ErrCodec, b[1])
	}
	u.ProductID = binary.LittleEndian.Uint64(b[2:10])
	u.Category = binary.LittleEndian.Uint16(b[10:12])
	u.Sales = binary.LittleEndian.Uint32(b[12:16])
	u.Praise = binary.LittleEndian.Uint32(b[16:20])
	u.PriceCents = binary.LittleEndian.Uint32(b[20:24])
	u.EventTimeNanos = int64(binary.LittleEndian.Uint64(b[24:32]))
	u.Seq = binary.LittleEndian.Uint64(b[32:40])
	n := int(binary.LittleEndian.Uint16(b[40:42]))
	b = b[42:]
	// Every URL takes at least its 2-byte length, so a count the rest of
	// the frame cannot back fails before it sizes the slice.
	if 2*n > len(b) {
		return nil, fmt.Errorf("%w: %d urls in %d bytes", ErrCodec, n, len(b))
	}
	if n > 0 {
		u.ImageURLs = make([]string, 0, n)
		for i := 0; i < n; i++ {
			if len(b) < 2 {
				return nil, fmt.Errorf("%w: short url header", ErrCodec)
			}
			l := int(binary.LittleEndian.Uint16(b))
			b = b[2:]
			if len(b) < l {
				return nil, fmt.Errorf("%w: short url body", ErrCodec)
			}
			u.ImageURLs = append(u.ImageURLs, string(b[:l]))
			b = b[l:]
		}
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCodec, len(b))
	}
	return u, nil
}
