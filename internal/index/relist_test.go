package index

import (
	"bytes"
	"fmt"
	"math/rand"
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
	s, err := New(Config{Dim: testDim, NLists: 8, DefaultNProbe: 8, SearchWorkers: 1, PQSubvectors: 4, PQBits: bits})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Train(train, 3); err != nil {
		t.Fatal(err)
	}
	if err := s.TrainPQ(train, 3); err != nil {
		t.Fatal(err)
	}
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
// also changes owners must move the image between byProduct entries, like
// the plain reuse path does.
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
	if imgs := s.ProductImages(uint64(victim + 1)); len(imgs) != 0 {
		t.Fatalf("old product still owns %v", imgs)
	}
	imgs := s.ProductImages(9_999)
	if len(imgs) != 1 || imgs[0] != id {
		t.Fatalf("new product owns %v, want [%d]", imgs, id)
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
	// vanish while their codes remain scannable (the condition disk-backed
	// rows make reachable) — re-rank then has fewer than k exact rows.
	const kept = 20
	s.feats.(*featMat).length.Store(kept)

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

// TestRelistSnapshotRoundTrip: a snapshot written after a changed-vector
// re-listing must rebuild the same lookup state on load — the tombstoned
// stale generation stays out of byProduct, so replicas loaded from the
// stream agree with the shard that wrote it.
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

	want := s.ProductImages(uint64(victim + 1))
	got := dup.ProductImages(uint64(victim + 1))
	if len(want) != 1 || want[0] != id {
		t.Fatalf("source byProduct = %v, want [%d]", want, id)
	}
	if len(got) != len(want) || got[0] != want[0] {
		t.Fatalf("loaded byProduct = %v, source has %v (stale generation resurfaced?)", got, want)
	}
	// A delisted-but-not-superseded image keeps its byProduct entry so it
	// can be re-listed (validity is the only tombstone for plain removal).
	if _, err := s.RemoveImageURL("jfs://relist/9.jpg"); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	dup2, err := New(s.Config())
	if err != nil {
		t.Fatal(err)
	}
	if err := dup2.LoadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if imgs := dup2.ProductImages(10); len(imgs) != 1 {
		t.Fatalf("delisted image lost its product membership on load: %v", imgs)
	}
	// And the re-listed URL still searches at its new location on the
	// loaded replica.
	if got, dist := topURL(t, dup, newFeat); got != url || dist != 0 {
		t.Fatalf("loaded replica top(new) = %q dist %v, want %q dist 0", got, dist, url)
	}
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
