package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"jdvs/internal/bitmapx"
	"jdvs/internal/core"
	"jdvs/internal/forward"
	"jdvs/internal/kmeans"
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
// section whose list count disagrees with its codebook's K.
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

// shapeShard is a shard of k lists of dim floats holding one image per
// list: row i sits on centroid i, whose every coordinate is i, and so in
// list i, where Insert would place it.
func shapeShard(t testing.TB, k, dim int) *Shard {
	t.Helper()
	s, err := New(goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	cents := make([]float32, k*dim)
	for i := range cents {
		cents[i] = float32(i / dim)
	}
	if err := s.SetCodebook(&kmeans.Codebook{K: k, Dim: dim, Centroids: cents}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		id, err := s.appendRow(core.Attrs{ProductID: uint64(i), URL: fmt.Sprintf("jfs://shape/%d.jpg", i)}, cents[i*dim:(i+1)*dim], i, nil)
		if err != nil {
			t.Fatal(err)
		}
		s.valid.Set(id)
	}
	return s
}

// listsOnlySnapshot is a stream of s's codebook and inverted lists with an
// empty forward section between them, ending after the lists: the lists
// name ids no record backs. The load fails, but only after decoding the
// lists, whose storage must stay within what the stream carried.
func listsOnlySnapshot(t testing.TB, s *Shard) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString(snapMagic)
	buf.WriteByte(snapVersion)
	buf.Write(binary.LittleEndian.AppendUint64(nil, 0))
	if err := writeCodebook(&buf, s.codebook); err != nil {
		t.Fatal(err)
	}
	if _, err := forward.New().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := s.inv.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
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
	// The widest shape a query can reach: one 256-row feature chunk of
	// Dim core.MaxFeatureDim is 4 MiB.
	f.Add(snapshotBytes(f, shapeShard(f, 2, core.MaxFeatureDim)))
	// 50k one-entry lists at Dim 1, with no forward records behind them:
	// per-list storage sized ahead of its ids would outgrow the stream.
	f.Add(listsOnlySnapshot(f, shapeShard(f, 50_000, 1)))
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

// TestLoadSnapshotSectionsMatchCodebook: the codebook header decides a
// loaded shard's shape, and every later section that repeats part of it
// must agree: the inverted list count, the feature rows' Dim, and the
// product quantizer's Dim and code list count.
func TestLoadSnapshotSectionsMatchCodebook(t *testing.T) {
	s := goldenShard(t, 8)
	golden := snapshotBytes(t, s)
	var sections [3]bytes.Buffer
	fwdLen, err := s.fwd.WriteTo(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	invLen, err := s.inv.WriteTo(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeBitmap(&sections[0], s.valid); err != nil {
		t.Fatal(err)
	}
	if _, err := s.feats.writeTo(&sections[1]); err != nil {
		t.Fatal(err)
	}
	if err := writePQCodebook(&sections[2], s.PQCodebook()); err != nil {
		t.Fatal(err)
	}
	featAt := len(snapMagic) + 1 + 8 + 8 + 4*len(s.codebook.Centroids) + int(fwdLen) + int(invLen) + sections[0].Len()
	pqAt := featAt + sections[1].Len() + 2 // past [present][bits]
	codesAt := pqAt + sections[2].Len()
	for _, tc := range []struct {
		name         string
		at           int
		was, claimed uint32
	}{
		{"feature rows of Dim 2", featAt, 4, 2},
		{"pq codebook of Dim 8", pqAt + 4, 4, 8},
		{"pq codes in three lists", codesAt, 2, 3},
	} {
		if got := binary.LittleEndian.Uint32(golden[tc.at:]); got != tc.was {
			t.Fatalf("%s: offset %d holds %d, want the header's %d", tc.name, tc.at, got, tc.was)
		}
		b := append([]byte(nil), golden...)
		binary.LittleEndian.PutUint32(b[tc.at:], tc.claimed)
		dup, _ := New(goldenConfig())
		if err := dup.LoadSnapshot(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: snapshot accepted", tc.name)
		}
	}
	dup, _ := New(goldenConfig())
	if err := dup.LoadSnapshot(bytes.NewReader(oneListSnapshot(t))); err == nil {
		t.Error("one inverted list for a two-list codebook: snapshot accepted")
	}
}
