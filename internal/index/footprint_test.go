package index

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"jdvs/internal/core"
	"jdvs/internal/forward"
	"jdvs/internal/msg"
)

// TestFeatureHeapFootprint: a small shard's feature storage is its rows
// plus at most one partly filled chunk — no fixed per-shard floor, so a
// cluster of many small shards does not pay a chunk's worth of empty
// space per shard. The bound is absolute (64 KiB of slack at dim 64), not
// a multiple of featRowsPerChunk, so growing the chunk fails here.
func TestFeatureHeapFootprint(t *testing.T) {
	const rows, dim, slack = 2000, 64, 64 << 10
	rng := rand.New(rand.NewSource(5))
	feature := func() []float32 {
		f := make([]float32, dim)
		for i := range f {
			f[i] = float32(rng.NormFloat64())
		}
		return f
	}
	train := make([]float32, 0, 200*dim)
	for i := 0; i < 200; i++ {
		train = append(train, feature()...)
	}
	s := trainShard(t, Config{}, 4, dim, train, 1)
	for i := 0; i < rows; i++ {
		if _, _, err := s.Insert(attrsFor(i), feature()); err != nil {
			t.Fatal(err)
		}
	}
	used := int64(rows * dim * 4)
	if held := s.Stats().FeatureHeapBytes; held > used+slack {
		t.Fatalf("%d rows at dim %d hold %d B of feature storage for %d B of rows, want at most %d B of slack",
			rows, dim, held, used, slack)
	}
}

// TestURLLimitAgreesWithMsg: every URL an update event can carry
// (msg.MaxURLBytes) must fit the forward index, or an event the indexer
// accepts would fail at the searcher. A URL of exactly that length is
// inserted, found by search and carried through a snapshot; one byte
// longer is rejected before anything is committed.
func TestURLLimitAgreesWithMsg(t *testing.T) {
	if forward.MaxURLLen < msg.MaxURLBytes {
		t.Fatalf("forward.MaxURLLen %d < msg.MaxURLBytes %d", forward.MaxURLLen, msg.MaxURLBytes)
	}
	s, rng := testShard(t, 4)
	for i := 0; i < 20; i++ {
		if _, _, err := s.Insert(attrsFor(i), randFeature(rng)); err != nil {
			t.Fatal(err)
		}
	}
	long := attrsFor(100)
	long.URL = "jfs://img/" + strings.Repeat("x", msg.MaxURLBytes-len("jfs://img/"))
	f := randFeature(rng)
	id, _, err := s.Insert(long, f)
	if err != nil {
		t.Fatalf("%d-byte URL rejected: %v", len(long.URL), err)
	}
	tooLong := attrsFor(101)
	tooLong.URL = long.URL + "y"
	if _, _, err := s.Insert(tooLong, randFeature(rng)); !errors.Is(err, forward.ErrURLTooLong) {
		t.Fatalf("%d-byte URL: err = %v, want ErrURLTooLong", len(tooLong.URL), err)
	}
	if s.HasURL(tooLong.URL) {
		t.Fatal("rejected URL was committed")
	}

	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	dup, err := New(s.Config())
	if err != nil {
		t.Fatal(err)
	}
	if err := dup.LoadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	for name, sh := range map[string]*Shard{"inserted": s, "restored": dup} {
		resp, err := sh.Search(&core.SearchRequest{Feature: f, TopK: 1, NProbe: 4, Category: -1})
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Hits) == 0 || resp.Hits[0].Image.Local != id || resp.Hits[0].URL != long.URL {
			t.Fatalf("%s shard: self-query did not return the %d-byte URL", name, len(long.URL))
		}
	}
}
