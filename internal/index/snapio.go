package index

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"jdvs/internal/bitmapx"
	"jdvs/internal/kmeans"
	"jdvs/internal/pq"
)

// writeCodebook serialises a codebook: [4B K][4B Dim][K*Dim float32].
func writeCodebook(w io.Writer, cb *kmeans.Codebook) error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(cb.K))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(cb.Dim))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	buf := make([]byte, 4*len(cb.Centroids))
	for i, v := range cb.Centroids {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	_, err := w.Write(buf)
	return err
}

// readCodebook deserialises a codebook. Its header decides the shard's
// shape, so it must be one checkShape accepts; K×Dim stays a claim until
// the centroids behind it arrive.
func readCodebook(r io.Reader) (*kmeans.Codebook, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	k := int(binary.LittleEndian.Uint32(hdr[0:4]))
	dim := int(binary.LittleEndian.Uint32(hdr[4:8]))
	if err := checkShape(k, dim); err != nil {
		return nil, err
	}
	cents, err := readFloats(r, k*dim)
	if err != nil {
		return nil, err
	}
	return &kmeans.Codebook{K: k, Dim: dim, Centroids: cents}, nil
}

// floatStep is how many floats readFloats decodes per read.
const floatStep = 1024

// readFloats reads n little-endian float32s. n is a claim of the stream
// until the bytes behind it arrive, so the result grows only as they do:
// at most doubling what has been read, never past n.
func readFloats(r io.Reader, n int) ([]float32, error) {
	var raw [4 * floatStep]byte
	var out []float32
	for len(out) < n {
		step := min(n-len(out), floatStep)
		if _, err := io.ReadFull(r, raw[:4*step]); err != nil {
			return nil, err
		}
		if len(out)+step > cap(out) {
			out = slices.Grow(out, min(n-len(out), max(len(out), step)))
		}
		for i := 0; i < step; i++ {
			out = append(out, math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:])))
		}
	}
	return out, nil
}

// writePQCodebook serialises a product quantizer:
// [4B M][4B Dim][M*KPerSub*(Dim/M) float32]. The centroid count per
// subquantizer (256 or 16) is not part of this section — the enclosing
// snapshot's bit-width byte decides it, and readPQCodebook receives it.
func writePQCodebook(w io.Writer, cb *pq.Codebook) error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(cb.M))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(cb.Dim))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	buf := make([]byte, 4*len(cb.Centroids))
	for i, v := range cb.Centroids {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	_, err := w.Write(buf)
	return err
}

// readPQCodebook deserialises a product quantizer over wantDim floats, the
// IVF codebook's Dim.
func readPQCodebook(r io.Reader, bits, wantDim int) (*pq.Codebook, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	m := int(binary.LittleEndian.Uint32(hdr[0:4]))
	dim := int(binary.LittleEndian.Uint32(hdr[4:8]))
	if dim != wantDim {
		return nil, fmt.Errorf("index: pq codebook dim %d, codebook dim %d", dim, wantDim)
	}
	if m <= 0 || m > dim || dim%m != 0 {
		return nil, fmt.Errorf("index: corrupt pq codebook header (M=%d Dim=%d)", m, dim)
	}
	kPerSub := pq.NCentroids
	if bits == 4 {
		kPerSub = pq.NCentroids4
	}
	cents, err := readFloats(r, kPerSub*dim)
	if err != nil {
		return nil, err
	}
	cb := &pq.Codebook{M: m, Dim: dim, SubDim: dim / m, Bits: bits, Centroids: cents}
	if err := cb.Valid(); err != nil {
		return nil, err
	}
	return cb, nil
}

// writeBitmap serialises the validity bitmap: [4B words][words*8B].
func writeBitmap(w io.Writer, b *bitmapx.Bitmap) error {
	words := b.Snapshot()
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(words)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	buf := make([]byte, 8*len(words))
	for i, v := range words {
		binary.LittleEndian.PutUint64(buf[8*i:], v)
	}
	_, err := w.Write(buf)
	return err
}

// readBitmap deserialises a bitmap over rows bits: whole chunks, as
// Snapshot writes them, with no chunk and no set bit past the last row.
func readBitmap(r io.Reader, rows int) (*bitmapx.Bitmap, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	const chunkBits = 64 * bitmapx.ChunkWords
	if n%bitmapx.ChunkWords != 0 || n > (rows+chunkBits-1)/chunkBits*bitmapx.ChunkWords {
		return nil, fmt.Errorf("index: corrupt bitmap header (%d words for %d rows)", n, rows)
	}
	buf := make([]byte, 8*n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	words := make([]uint64, n)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(buf[8*i:])
	}
	for id := rows; id < 64*n; id++ {
		if bitmapx.Words(words).Get(uint32(id)) {
			return nil, fmt.Errorf("index: bitmap bit %d set past %d rows", id, rows)
		}
	}
	b := bitmapx.New(0)
	b.Restore(words)
	return b, nil
}
