// Package imaging is the synthetic product-image substrate.
//
// The real system stores JPEG product photos in an image store and runs a
// CNN over them. We cannot ship JD's photos, so a synthetic image is a
// small binary blob that carries exactly the information the rest of the
// system consumes:
//
//   - a latent content vector — images of the same product are generated
//     from nearby latents, so the (simulated) CNN embeds them close
//     together and nearest-neighbour search behaves realistically;
//   - an object window — what the paper's item detector finds (§2.4);
//   - a ground-truth category label — used only to validate classifier
//     accuracy in tests, never by the search path itself;
//   - an opaque pixel payload sized like a small JPEG, so that image-store
//     and network costs are representative.
//
// The blob format is versioned and self-describing; Decode validates
// structure and rejects corrupt inputs.
package imaging

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// LatentDim is the dimensionality of the latent content vector embedded in
// every synthetic image.
const LatentDim = 32

const (
	formatVersion = 1
	headerSize    = 1 + 2*6 + 2 + 4 // version + 6 uint16 geometry + category + payload len
	maxPayload    = 1 << 24
)

// ErrCorrupt is wrapped by all decode failures.
var ErrCorrupt = errors.New("imaging: corrupt image blob")

// Image is a decoded synthetic product image.
type Image struct {
	Width, Height uint16
	// Object window found by the detector (§2.4: "an item in the picture is
	// detected").
	ObjX, ObjY, ObjW, ObjH uint16
	// Category is the ground-truth category label used to evaluate the
	// simulated classifier; production code paths treat it as opaque.
	Category uint16
	// Latent is the content vector the simulated CNN embeds.
	Latent [LatentDim]float32
	// Payload is filler standing in for compressed pixel data.
	Payload []byte
}

// Encode serialises the image blob.
func (im *Image) Encode() []byte {
	size := headerSize + 4*LatentDim + len(im.Payload)
	dst := make([]byte, 0, size)
	dst = append(dst, formatVersion)
	for _, v := range [...]uint16{im.Width, im.Height, im.ObjX, im.ObjY, im.ObjW, im.ObjH} {
		dst = binary.LittleEndian.AppendUint16(dst, v)
	}
	dst = binary.LittleEndian.AppendUint16(dst, im.Category)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(im.Payload)))
	for _, v := range im.Latent {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
	}
	dst = append(dst, im.Payload...)
	return dst
}

// Decode parses an image blob into an Image that owns its payload.
func Decode(b []byte) (*Image, error) {
	im := &Image{}
	if err := DecodeInto(im, b); err != nil {
		return nil, err
	}
	im.Payload = append([]byte(nil), im.Payload...)
	return im, nil
}

// DecodeInto parses an image blob into im without copying: im.Payload
// aliases b, so im must not outlive a reuse of b. It is for readers that
// only need the header and latent, like feature extraction.
func DecodeInto(im *Image, b []byte) error {
	if len(b) < headerSize+4*LatentDim {
		return fmt.Errorf("%w: %d bytes", ErrCorrupt, len(b))
	}
	if b[0] != formatVersion {
		return fmt.Errorf("%w: version %d", ErrCorrupt, b[0])
	}
	geo := []*uint16{&im.Width, &im.Height, &im.ObjX, &im.ObjY, &im.ObjW, &im.ObjH}
	off := 1
	for _, p := range geo {
		*p = binary.LittleEndian.Uint16(b[off:])
		off += 2
	}
	im.Category = binary.LittleEndian.Uint16(b[off:])
	off += 2
	payloadLen := int(binary.LittleEndian.Uint32(b[off:]))
	off += 4
	if payloadLen > maxPayload {
		return fmt.Errorf("%w: payload %d bytes", ErrCorrupt, payloadLen)
	}
	for i := 0; i < LatentDim; i++ {
		im.Latent[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[off:]))
		off += 4
	}
	if len(b)-off != payloadLen {
		return fmt.Errorf("%w: payload length mismatch (%d declared, %d present)", ErrCorrupt, payloadLen, len(b)-off)
	}
	im.Payload = b[off:]
	return nil
}

// GenConfig controls synthetic image generation.
type GenConfig struct {
	// PayloadBytes is the filler payload size (default 2048).
	PayloadBytes int
	// Noise is the per-component Gaussian noise added to the base latent
	// (default 0.05): images of the same product differ by about this much.
	Noise float64
}

func (c *GenConfig) fill() {
	if c.PayloadBytes <= 0 {
		c.PayloadBytes = 2048
	}
	if c.Noise <= 0 {
		c.Noise = 0.05
	}
}

// Generate creates an image whose latent is base plus Gaussian noise. base
// must have LatentDim components.
func Generate(rng *rand.Rand, base []float32, category uint16, cfg GenConfig) *Image {
	if len(base) != LatentDim {
		panic(fmt.Sprintf("imaging: base latent has %d dims, want %d", len(base), LatentDim))
	}
	cfg.fill()
	im := &Image{
		Width:    800,
		Height:   800,
		Category: category,
	}
	// Object window: a random crop region strictly inside the frame.
	im.ObjW = uint16(200 + rng.Intn(400))
	im.ObjH = uint16(200 + rng.Intn(400))
	im.ObjX = uint16(rng.Intn(int(im.Width-im.ObjW) + 1))
	im.ObjY = uint16(rng.Intn(int(im.Height-im.ObjH) + 1))
	for i := range im.Latent {
		im.Latent[i] = base[i] + float32(rng.NormFloat64()*cfg.Noise)
	}
	im.Payload = make([]byte, cfg.PayloadBytes)
	// Deterministic pseudo-JPEG filler derived from the rng stream.
	for i := 0; i+8 <= len(im.Payload); i += 8 {
		binary.LittleEndian.PutUint64(im.Payload[i:], rng.Uint64())
	}
	return im
}
