package index

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"jdvs/internal/core"
)

// relistShard builds a PQ-enabled shard whose IVF centroids are far apart,
// so features built near distinct centroids land in distinct inverted
// lists — re-listing with a vector from another cluster must move the
// image. bits is the PQ code width.
func relistShard(t *testing.T, bits int) (*Shard, [][]float32) {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	feats := clusteredFeatures(rng, 2000, testDim, 8, 0.2)
	train := make([]float32, 0, 2000*testDim)
	for _, f := range feats {
		train = append(train, f...)
	}
	s, err := New(Config{Dim: testDim, NLists: 8, DefaultNProbe: 8, SearchWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Train(train, 3); err != nil {
		t.Fatal(err)
	}
	trainPQ(t, s, 4, bits, train, 3)
	for i, f := range feats {
		a := core.Attrs{ProductID: uint64(i + 1), URL: fmt.Sprintf("jfs://relist/%d.jpg", i)}
		if _, _, err := s.Insert(a, f); err != nil {
			t.Fatal(err)
		}
	}
	return s, feats
}

// storedCode returns the PQ code the shard holds for image id: codes are
// keyed by list position, so it is the code at id's slot in the one
// inverted list that yields id.
func storedCode(t *testing.T, s *Shard, id core.ImageID) []byte {
	t.Helper()
	ps := s.pqState.Load()
	for l, blocks := range ps.lists {
		slot, found := uint32(0), false
		s.inv.Scan(l, func(got uint32) bool {
			found = got == id
			if !found {
				slot++
			}
			return !found
		})
		if found {
			code := make([]byte, ps.cb.CodeBytes())
			blocks.extract(slot, code)
			return code
		}
	}
	t.Fatalf("image %d is in no inverted list", id)
	return nil
}

// topURL returns the URL of the closest hit for a query vector.
func topURL(t *testing.T, s *Shard, q []float32) (string, float32) {
	t.Helper()
	resp, err := s.Search(&core.SearchRequest{Feature: q, TopK: 1, NProbe: 8, Category: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Hits) == 0 {
		t.Fatal("no hits")
	}
	return resp.Hits[0].URL, resp.Hits[0].Dist
}

// TestRelistChangedFeature is the headline regression: re-listing a URL
// with a different vector must make the image searchable at its new
// location — fresh feature row, fresh PQ code, entry in the new vector's
// inverted list — instead of serving the old vector forever.
func TestRelistChangedFeature(t *testing.T) {
	for _, bits := range []int{8, 4} {
		t.Run(fmt.Sprintf("bits=%d", bits), func(t *testing.T) { runRelistChangedFeature(t, bits) })
	}
}

func runRelistChangedFeature(t *testing.T, bits int) {
	s, feats := relistShard(t, bits)
	const victim = 7
	url := fmt.Sprintf("jfs://relist/%d.jpg", victim)
	oldFeat := feats[victim]

	// Pick a replacement vector from a different IVF cluster.
	oldCluster := s.codebook.Assign(oldFeat)
	var newFeat []float32
	for _, f := range feats {
		if s.codebook.Assign(f) != oldCluster {
			newFeat = append([]float32(nil), f...)
			break
		}
	}
	if newFeat == nil {
		t.Fatal("corpus collapsed into one cluster")
	}
	// Perturb so the vector is unique in the corpus.
	newFeat[0] += 0.01

	// Before: the URL is the exact match for its old vector.
	if got, dist := topURL(t, s, oldFeat); got != url || dist != 0 {
		t.Fatalf("precondition: top(old) = %q dist %v, want %q dist 0", got, dist, url)
	}

	oldID := s.byURL[url]
	id, reused, err := s.Insert(core.Attrs{ProductID: uint64(victim + 1), URL: url, Sales: 777}, newFeat)
	if err != nil {
		t.Fatal(err)
	}
	if reused {
		t.Fatal("changed-vector re-listing reported as reuse")
	}
	if id == oldID {
		t.Fatalf("changed-vector re-listing kept id %d", id)
	}

	// The stale generation is tombstoned; the URL maps to the new one.
	if s.valid.Get(oldID) {
		t.Fatal("stale generation still valid")
	}
	if got := s.byURL[url]; got != id {
		t.Fatalf("byURL = %d, want %d", got, id)
	}

	// ADC path (PQ enabled): the new vector finds the URL at distance 0 —
	// the code was re-encoded and the id lives in the new inverted list.
	if got, dist := topURL(t, s, newFeat); got != url || dist != 0 {
		t.Fatalf("ADC top(new) = %q dist %v, want %q dist 0", got, dist, url)
	}
	// The old vector no longer resolves to the URL at distance 0.
	if got, dist := topURL(t, s, oldFeat); got == url && dist == 0 {
		t.Fatal("old vector still serves the re-listed URL at distance 0")
	}
	// The shard-held row and code reflect the new vector.
	if !rowsEqual(s.Feature(id), newFeat) {
		t.Fatal("stored row is not the new vector")
	}
	ps := s.pqState.Load()
	want := make([]byte, ps.cb.CodeBytes())
	if err := ps.cb.Encode(newFeat, want); err != nil {
		t.Fatal(err)
	}
	if got := storedCode(t, s, id); !bytes.Equal(got, want) {
		t.Fatalf("ADC code not re-encoded: got %v, want %v", got, want)
	}
	// Attributes rode along.
	if a, ok := s.Attrs(id); !ok || a.Sales != 777 {
		t.Fatalf("attrs = %+v, want Sales 777", a)
	}
	if st := s.Stats(); st.FeatureRefreshes != 1 {
		t.Fatalf("FeatureRefreshes = %d, want 1", st.FeatureRefreshes)
	}

	// Exact path: same corpus without PQ.
	se, err := New(Config{Dim: testDim, NLists: 8, DefaultNProbe: 8, SearchWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := se.SetCodebook(s.Codebook()); err != nil {
		t.Fatal(err)
	}
	for i, f := range feats {
		a := core.Attrs{ProductID: uint64(i + 1), URL: fmt.Sprintf("jfs://relist/%d.jpg", i)}
		if _, _, err := se.Insert(a, f); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := se.Insert(core.Attrs{ProductID: uint64(victim + 1), URL: url}, newFeat); err != nil {
		t.Fatal(err)
	}
	if got, dist := topURL(t, se, newFeat); got != url || dist != 0 {
		t.Fatalf("exact top(new) = %q dist %v, want %q dist 0", got, dist, url)
	}
}

// TestRelistChangedFeatureMovesProduct: a changed-vector re-listing that
// also changes owners carries the new owner on the fresh generation, like
// the plain reuse path does, and the URL addresses that generation.
func TestRelistChangedFeatureMovesProduct(t *testing.T) {
	s, feats := relistShard(t, 8)
	const victim = 3
	url := fmt.Sprintf("jfs://relist/%d.jpg", victim)
	newFeat := append([]float32(nil), feats[victim]...)
	newFeat[1] += 5 // changed vector
	id, _, err := s.Insert(core.Attrs{ProductID: 9_999, URL: url}, newFeat)
	if err != nil {
		t.Fatal(err)
	}
	if a, _ := s.Attrs(id); a.ProductID != 9_999 {
		t.Fatalf("fresh generation owned by %d, want 9999", a.ProductID)
	}
	resp, err := s.Search(&core.SearchRequest{Feature: newFeat, TopK: 1, NProbe: 8, Category: -1})
	if err != nil || len(resp.Hits) != 1 || resp.Hits[0].Image.Local != id || resp.Hits[0].ProductID != 9_999 {
		t.Fatalf("top hit = %+v, %v; want image %d of product 9999", resp, err, id)
	}
	if changed, err := s.RemoveImageURL(url); err != nil || !changed || s.Valid(id) {
		t.Fatalf("RemoveImageURL = %v, %v; fresh generation valid=%v", changed, err, s.Valid(id))
	}
}

// TestRelistSameFeatureReuses: supplying the identical vector on a
// re-listing keeps the cheap §2.3 reuse path — validity flip plus
// attribute refresh, no new generation.
func TestRelistSameFeatureReuses(t *testing.T) {
	s, feats := relistShard(t, 8)
	const victim = 11
	url := fmt.Sprintf("jfs://relist/%d.jpg", victim)
	before := s.Stats()
	id, reused, err := s.Insert(core.Attrs{ProductID: uint64(victim + 1), URL: url, Sales: 5}, feats[victim])
	if err != nil {
		t.Fatal(err)
	}
	if !reused {
		t.Fatal("identical-vector re-listing did not reuse")
	}
	after := s.Stats()
	if after.Images != before.Images || after.FeatureRefreshes != 0 {
		t.Fatalf("reuse appended a generation: %+v -> %+v", before, after)
	}
	if a, ok := s.Attrs(id); !ok || a.Sales != 5 {
		t.Fatalf("attrs not refreshed: %+v", a)
	}
}

// TestRelistDimValidation: the reuse path must reject a wrong-dimension
// vector exactly like the fresh-insert path, instead of silently
// succeeding.
func TestRelistDimValidation(t *testing.T) {
	s, _ := relistShard(t, 8)
	url := "jfs://relist/0.jpg"
	if _, _, err := s.Insert(core.Attrs{ProductID: 1, URL: url}, make([]float32, 3)); err == nil {
		t.Fatal("wrong-dim re-listing accepted")
	}
	// nil feature stays the explicit feature-reuse request.
	if _, reused, err := s.Insert(core.Attrs{ProductID: 1, URL: url}, nil); err != nil || !reused {
		t.Fatalf("nil-feature reuse: reused=%v err=%v", reused, err)
	}
}

// TestADCRerankBackfill: when raw rows are unavailable at re-rank time,
// the ADC path must backfill from the next approximate candidates (scored
// by their ADC distance) instead of returning fewer than k results.
func TestADCRerankBackfill(t *testing.T) {
	s, feats := relistShard(t, 8)
	n := s.feats.Len()
	// Simulate a store-level gap: all but the first 20 rows' raw features
	// vanish while their codes remain scannable — re-rank then has fewer
	// than k exact rows.
	const kept = 20
	s.feats.length.Store(kept)

	const k = 10
	missingHits := 0
	for qi := 0; qi < 20; qi++ {
		resp, err := s.Search(&core.SearchRequest{Feature: feats[n-1-qi], TopK: k, NProbe: 8, Category: -1})
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Hits) != k {
			t.Fatalf("query %d: %d hits, want %d (shard holds %d valid images)", qi, len(resp.Hits), k, n)
		}
		seen := make(map[uint32]bool, k)
		for _, h := range resp.Hits {
			if seen[h.Image.Local] {
				t.Fatalf("duplicate hit %d", h.Image.Local)
			}
			seen[h.Image.Local] = true
			if h.Image.Local >= kept {
				missingHits++
			}
		}
	}
	if missingHits == 0 {
		t.Fatal("no backfilled candidates surfaced; test exercised nothing")
	}
}

// TestRelistSnapshotRoundTrip: a replica loaded from a snapshot written
// after a changed-vector re-listing must apply per-URL updates the way the
// writer does. Both map every URL to the same image ID — the refreshed
// generation, never the tombstoned one — so the same RemoveImageURL and
// UpdateAttrsURL leave both with identical search pages.
func TestRelistSnapshotRoundTrip(t *testing.T) {
	s, feats := relistShard(t, 8)
	const victim = 5
	url := fmt.Sprintf("jfs://relist/%d.jpg", victim)
	newFeat := append([]float32(nil), feats[victim]...)
	newFeat[2] += 4
	id, _, err := s.Insert(core.Attrs{ProductID: uint64(victim + 1), URL: url, Sales: 321}, newFeat)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	dup, err := New(s.Config())
	if err != nil {
		t.Fatal(err)
	}
	if err := dup.LoadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	if s.byURL[url] != id {
		t.Fatalf("writer maps %s to %d, want %d", url, s.byURL[url], id)
	}
	if !maps.Equal(dup.byURL, s.byURL) {
		t.Fatal("loaded replica maps URLs to different image IDs than the writer")
	}
	queries := [][]float32{newFeat, feats[victim], feats[9], feats[100]}
	samePages := func(stage string) {
		t.Helper()
		for qi, q := range queries {
			for _, category := range []int32{-1, 3} {
				req := &core.SearchRequest{Feature: q, TopK: 10, NProbe: 8, Category: category}
				want, err := s.Search(req)
				if err != nil {
					t.Fatal(err)
				}
				got, err := dup.Search(req)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Hits, want.Hits) {
					t.Fatalf("%s: query %d category %d: replica page %+v, writer page %+v", stage, qi, category, got.Hits, want.Hits)
				}
			}
		}
	}
	samePages("loaded")
	for _, sh := range []*Shard{s, dup} {
		if err := sh.UpdateAttrsURL(url, 55, 6, 700, 3); err != nil {
			t.Fatal(err)
		}
		if _, err := sh.RemoveImageURL("jfs://relist/9.jpg"); err != nil {
			t.Fatal(err)
		}
	}
	samePages("after update")
	// And the re-listed URL still searches at its new location, under its
	// updated attributes, on the loaded replica.
	resp, err := dup.Search(&core.SearchRequest{Feature: newFeat, TopK: 1, NProbe: 8, Category: 3})
	if err != nil || len(resp.Hits) != 1 || resp.Hits[0].URL != url || resp.Hits[0].Dist != 0 || resp.Hits[0].Sales != 55 {
		t.Fatalf("loaded replica top(new) = %+v, %v; want %q dist 0 sales 55", resp, err, url)
	}
	for _, sh := range []*Shard{s, dup} {
		if changed, err := sh.RemoveImageURL(url); err != nil || !changed {
			t.Fatalf("RemoveImageURL = %v, %v", changed, err)
		}
	}
	samePages("after removal")
}

// TestInsertRejectsOversizedURL: a URL the forward index would refuse is
// rejected up front — before the feature row commits — so one bad insert
// cannot skew the matrices and wedge the shard's write path.
func TestInsertRejectsOversizedURL(t *testing.T) {
	s, feats := relistShard(t, 8)
	before := s.Stats()
	huge := "jfs://" + strings.Repeat("x", 2<<20)
	if _, _, err := s.Insert(core.Attrs{ProductID: 1, URL: huge}, feats[0]); err == nil {
		t.Fatal("oversized URL accepted")
	}
	if st := s.Stats(); st.Images != before.Images {
		t.Fatalf("failed insert committed state: %+v", st)
	}
	// The shard keeps ingesting: the matrices stayed aligned.
	if _, _, err := s.Insert(core.Attrs{ProductID: 1, URL: "jfs://relist/after.jpg"}, feats[0]); err != nil {
		t.Fatalf("shard wedged after rejected insert: %v", err)
	}
}
