package index

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"jdvs/internal/bitmapx"
	"jdvs/internal/core"
)

// snapshotAllocBound is how many bytes LoadSnapshot may allocate into a
// goldenConfig shard for an n-byte stream: a constant for the first chunks
// of the fresh structures (forward records and URL buffer, feature rows,
// validity bitmap, category directory), a small multiple of the input, and
// catBytes — the per-category bitmaps the load rebuilds, which any shard
// holding the stream's categories and rows keeps. A length field the
// stream cannot back must fail before it sizes an allocation.
func snapshotAllocBound(n int, catBytes uint64) uint64 {
	return 4<<20 + 16*uint64(n) + catBytes
}

// allocatedBytes returns the bytes allocated while f runs.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// categoryBitmapBytes sums the storage of s's per-category bitmaps.
func categoryBitmapBytes(s *Shard) uint64 {
	n := uint64(0)
	for _, b := range *s.cats.Load() {
		if b != nil {
			n += uint64(len(b.Snapshot()) * 8)
		}
	}
	return n
}

// corruptCodeSections rewrites the PQ code section of s's snapshot two
// ways that must both fail the load: list 0's last code moved to the end of
// list 1, so every byte still parses and the code total still matches the
// feature rows, and the stream cut inside the code section.
func corruptCodeSections(t testing.TB, s *Shard) (moved, truncated []byte) {
	t.Helper()
	var section bytes.Buffer
	full := snapshotBytes(t, s)
	ps := s.pqState.Load()
	if err := writeCodeBlockLists(&section, ps.lists); err != nil {
		t.Fatal(err)
	}
	// The code section is the snapshot's tail.
	head := full[:len(full)-section.Len()]
	n0 := ps.lists[0].published()
	if n0 == 0 {
		t.Fatal("list 0 is empty; there is no code to move")
	}
	shifted := append([]*codeBlocks(nil), ps.lists...)
	shifted[0], shifted[1] = newCodeBlocks(ps.cb), newCodeBlocks(ps.cb)
	code := make([]byte, ps.cb.CodeBytes())
	for i := uint32(0); i < n0-1; i++ {
		ps.lists[0].extract(i, code)
		shifted[0].append(code)
	}
	for i := uint32(0); i < ps.lists[1].published(); i++ {
		ps.lists[1].extract(i, code)
		shifted[1].append(code)
	}
	ps.lists[0].extract(n0-1, code)
	shifted[1].append(code)
	out := bytes.NewBuffer(append([]byte(nil), head...))
	if err := writeCodeBlockLists(out, shifted); err != nil {
		t.Fatal(err)
	}
	return out.Bytes(), full[:len(full)-len(code)-1]
}

// codebookClaimSnapshot is a 25-byte stream that ends right after its IVF
// codebook header, which claims k centroids of dim floats.
func codebookClaimSnapshot(k, dim uint32) []byte {
	b := append([]byte(snapMagic), snapVersion)
	b = binary.LittleEndian.AppendUint64(b, 0)
	b = binary.LittleEndian.AppendUint32(b, k)
	return binary.LittleEndian.AppendUint32(b, dim)
}

// oneListSnapshot is the exact-path golden shard's snapshot with its
// inverted section replaced by a single list holding every image — a
// section whose list count disagrees with the shard's NLists.
func oneListSnapshot(t testing.TB) []byte {
	t.Helper()
	s := goldenShard(t, 0)
	var buf bytes.Buffer
	buf.WriteString(snapMagic)
	buf.WriteByte(snapVersion)
	buf.Write(binary.LittleEndian.AppendUint64(nil, uint64(s.CoveredOffset())))
	if err := writeCodebook(&buf, s.codebook); err != nil {
		t.Fatal(err)
	}
	if _, err := s.fwd.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	n := uint32(s.fwd.Len())
	inv := binary.LittleEndian.AppendUint32(nil, 1)
	inv = binary.LittleEndian.AppendUint32(inv, n)
	inv = binary.LittleEndian.AppendUint32(inv, n)
	for id := uint32(0); id < n; id++ {
		inv = binary.LittleEndian.AppendUint32(inv, id)
	}
	buf.Write(inv)
	if err := writeBitmap(&buf, s.valid); err != nil {
		t.Fatal(err)
	}
	if _, err := s.feats.writeTo(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteByte(0) // no PQ section
	return buf.Bytes()
}

// FuzzLoadSnapshot: loading arbitrary bytes into a goldenConfig shard never
// panics and allocates within snapshotAllocBound. A stream the load
// accepts re-encodes through WriteSnapshot to exactly the bytes it
// consumed (bytes after the snapshot are not part of it), and the loaded
// shard serves a search and a real-time insert without error.
func FuzzLoadSnapshot(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "snapshot_v4.golden"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for _, bits := range []int{0, 4} {
		f.Add(snapshotBytes(f, goldenShard(f, bits)))
	}
	for _, bits := range []int{8, 4} {
		moved, truncated := corruptCodeSections(f, goldenShard(f, bits))
		f.Add(moved)
		f.Add(truncated)
	}
	// A codebook header claiming 4096×1024 floats: 16 MiB sized by 25 bytes.
	f.Add(codebookClaimSnapshot(1<<12, 1<<10))
	// One inverted list for a two-list shard: every insert into list 1 fails.
	f.Add(oneListSnapshot(f))
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := New(goldenConfig())
		if err != nil {
			t.Fatal(err)
		}
		r := bytes.NewReader(b)
		n := allocatedBytes(func() { err = s.LoadSnapshot(r) })
		catBytes := uint64(0)
		if err == nil {
			catBytes = categoryBitmapBytes(s)
		}
		if n > snapshotAllocBound(len(b), catBytes) {
			t.Fatalf("loading %d bytes allocated %d", len(b), n)
		}
		if err != nil {
			return
		}
		if again := snapshotBytes(t, s); !bytes.Equal(again, b[:len(b)-r.Len()]) {
			t.Fatalf("accepted snapshot re-encodes to %d bytes, want the %d it consumed", len(again), len(b)-r.Len())
		}
		cb := s.Codebook()
		last := append([]float32(nil), cb.Centroids[(cb.K-1)*cb.Dim:]...)
		if _, err := s.Search(&core.SearchRequest{Feature: last, TopK: 3, Category: -1}); err != nil {
			t.Fatalf("search on the loaded shard: %v", err)
		}
		if _, _, err := s.Insert(core.Attrs{ProductID: 1 << 40, URL: "jfs://fuzz/inserted.jpg"}, last); err != nil {
			t.Fatalf("insert into the loaded shard: %v", err)
		}
	})
}

// TestLoadSnapshotRejectsInconsistentSections: sections that each parse
// but disagree with one another are refused — a validity bit or a list
// entry past the last row, an image listed twice, and a validity section
// that is not a whole number of bitmap chunks.
func TestLoadSnapshotRejectsInconsistentSections(t *testing.T) {
	s := goldenShard(t, 0)
	golden := snapshotBytes(t, s)
	fwdLen, err := s.fwd.WriteTo(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	invLen, err := s.inv.WriteTo(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	invAt := len(snapMagic) + 1 + 8 + 8 + 4*len(s.codebook.Centroids) + int(fwdLen)
	bitmapAt := invAt + int(invLen)
	firstID := invAt + 12 // past [nLists][total][list 0 length]
	for _, tc := range []struct {
		name string
		edit func(b []byte) []byte
	}{
		{"validity bit past the last row", func(b []byte) []byte {
			b[bitmapAt+4] |= 1 << 6 // the golden shard has six rows
			return b
		}},
		{"list entry past the last row", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[firstID:], 6)
			return b
		}},
		{"image listed twice", func(b []byte) []byte {
			copy(b[firstID:firstID+4], b[firstID+4:firstID+8])
			return b
		}},
		{"partial bitmap chunk", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[bitmapAt:], 1)
			return append(b[:bitmapAt+12:bitmapAt+12], b[bitmapAt+4+8*bitmapx.ChunkWords:]...)
		}},
	} {
		dup, err := New(goldenConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := dup.LoadSnapshot(bytes.NewReader(tc.edit(append([]byte(nil), golden...)))); err == nil {
			t.Errorf("%s: snapshot accepted", tc.name)
		}
	}
}
