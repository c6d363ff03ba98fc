package index

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"jdvs/internal/core"
	"jdvs/internal/kmeans"
	"jdvs/internal/pq"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/snapshot_v4.golden from the current encoder")

// goldenConfig is the serving config of the golden shard and of the
// snapshot fuzzer's. It carries no shape: goldenShard's codebook makes the
// golden shard dim 4 with two lists (and two subquantizers), and a loaded
// shard takes whatever shape its stream's codebook header says.
func goldenConfig() Config {
	return Config{DefaultNProbe: 2, SearchWorkers: 1}
}

// goldenShard builds a tiny shard from fixed codebooks, with no training:
// six images in two lists, varied attributes and categories, one product
// delisted. pqBits 0 leaves the shard on the exact path; 4 or 8 installs a
// product quantizer of that width whose centroids sit on a regular grid.
func goldenShard(t testing.TB, pqBits int) *Shard {
	t.Helper()
	s, err := New(goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	ivf := &kmeans.Codebook{K: 2, Dim: 4, Centroids: []float32{0, 0, 0, 0, 8, 8, 8, 8}}
	if err := s.SetCodebook(ivf); err != nil {
		t.Fatal(err)
	}
	rows := [][]float32{
		{0.5, 0, 0.25, 1}, {7.5, 8, 9, 8.25}, {1, 0.5, 0, 0},
		{8, 7, 8.5, 9}, {0, 1.5, 0.5, 0.75}, {9, 8.5, 7.5, 7},
	}
	for i, f := range rows {
		a := core.Attrs{
			ProductID:  uint64(100 + i/2),
			Sales:      uint32(10 * i),
			Praise:     uint32(i),
			PriceCents: uint32(1999 + 100*i),
			Category:   uint16(i % 3),
			URL:        fmt.Sprintf("jfs://golden/%d.jpg", i),
		}
		if _, _, err := s.Insert(a, f); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range []int{2, 3} { // product 101's images
		if _, err := s.RemoveImageURL(fmt.Sprintf("jfs://golden/%d.jpg", i)); err != nil {
			t.Fatal(err)
		}
	}
	if pqBits != 0 {
		k := pq.NCentroids
		if pqBits == 4 {
			k = pq.NCentroids4
		}
		cents := make([]float32, 0, 2*k*2)
		for m := 0; m < 2; m++ {
			for c := 0; c < k; c++ {
				cents = append(cents, float32(c%16)*0.625, float32(c/16)*0.625+float32(m))
			}
		}
		if err := s.SetPQCodebook(&pq.Codebook{Dim: 4, M: 2, SubDim: 2, Bits: pqBits, Centroids: cents}); err != nil {
			t.Fatal(err)
		}
	}
	s.SetCoveredOffset(42)
	return s
}

func snapshotBytes(t testing.TB, s *Shard) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotGolden pins the v4 snapshot encoding byte for byte: the
// golden shard's stream must equal testdata/snapshot_v4.golden, and that
// file must load into a fresh shard and re-encode to itself. Any change to
// the disk and wire format of a shard fails here; regenerate with -update
// only together with a snapshot version bump.
func TestSnapshotGolden(t *testing.T) {
	path := filepath.Join("testdata", "snapshot_v4.golden")
	got := snapshotBytes(t, goldenShard(t, 8))
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("snapshot encoding drifted from %s: %d bytes, want %d", path, len(got), len(want))
	}
	loaded, err := New(goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.LoadSnapshot(bytes.NewReader(want)); err != nil {
		t.Fatal(err)
	}
	if again := snapshotBytes(t, loaded); !bytes.Equal(again, want) {
		t.Fatalf("golden snapshot does not re-encode to itself (%d bytes, want %d)", len(again), len(want))
	}
}

// TestFailedLoadLeavesShardIntact: a snapshot that fails to load changes
// nothing. A 9-image stream is cut at every section boundary, and one byte
// past it, then loaded into the 6-image golden shard: the load fails, and
// the shard reports the same stats, answers a query with the same hits
// and takes its next insert.
func TestFailedLoadLeavesShardIntact(t *testing.T) {
	src := goldenShard(t, 8)
	for i := 6; i < 9; i++ {
		a := core.Attrs{ProductID: uint64(200 + i), Category: 1, URL: fmt.Sprintf("jfs://golden/%d.jpg", i)}
		if _, _, err := src.Insert(a, []float32{float32(i), 1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	full := snapshotBytes(t, src)

	// Section ends, from the writers WriteSnapshot calls in order.
	var buf bytes.Buffer
	var ends []int
	mark := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, buf.Len())
	}
	buf.WriteString(snapMagic)
	mark(buf.WriteByte(snapVersion))
	_, err := buf.Write(full[buf.Len() : buf.Len()+8]) // covered offset
	mark(err)
	mark(writeCodebook(&buf, src.codebook))
	_, err = src.fwd.WriteTo(&buf)
	mark(err)
	_, err = src.inv.WriteTo(&buf)
	mark(err)
	mark(writeBitmap(&buf, src.valid))
	_, err = src.feats.writeTo(&buf)
	mark(err)
	_, err = buf.Write([]byte{1, 8}) // PQ flag and bits
	mark(err)
	mark(writePQCodebook(&buf, src.pqState.Load().cb))
	if !bytes.HasPrefix(full, buf.Bytes()) {
		t.Fatal("section writers do not reproduce the snapshot's prefix")
	}

	req := &core.SearchRequest{Feature: []float32{0.5, 0.5, 0.5, 0.5}, TopK: 10, Category: -1}
	for _, end := range ends {
		for _, cut := range []int{end, end + 1} {
			s := goldenShard(t, 8)
			st := s.Stats()
			before, err := s.Search(req)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.LoadSnapshot(bytes.NewReader(full[:cut])); err == nil {
				t.Fatalf("cut at %d of %d bytes: load succeeded", cut, len(full))
			}
			if got := s.Stats(); got != st {
				t.Errorf("cut at %d: stats %+v, want %+v", cut, got, st)
			}
			after, err := s.Search(req)
			if err != nil {
				t.Fatalf("cut at %d: search: %v", cut, err)
			}
			if !slices.Equal(after.Hits, before.Hits) {
				t.Errorf("cut at %d: hits %v, want %v", cut, after.Hits, before.Hits)
			}
			if _, _, err := s.Insert(core.Attrs{ProductID: 300, URL: "jfs://golden/next.jpg"}, []float32{1, 1, 1, 1}); err != nil {
				t.Errorf("cut at %d: next insert: %v", cut, err)
			}
		}
	}
}
