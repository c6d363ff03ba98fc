package ranking

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"jdvs/internal/core"
)

func hit(pid uint64, dist float32, sales, praise, price uint32) core.Hit {
	return core.Hit{ProductID: pid, Dist: dist, Sales: sales, Praise: praise, PriceCents: price}
}

func TestRankEmpty(t *testing.T) {
	r := New(DefaultWeights())
	if got := r.Rank(nil, 5); got != nil {
		t.Fatalf("Rank(nil) = %v", got)
	}
	if got := r.Rank([]core.Hit{hit(1, 0, 0, 0, 0)}, 0); got != nil {
		t.Fatalf("Rank(k=0) = %v", got)
	}
}

func TestZeroValueRankerUsesDefaults(t *testing.T) {
	var r Ranker
	got := r.Rank([]core.Hit{hit(1, 0.1, 10, 50, 100)}, 5)
	if len(got) != 1 || got[0].Score == 0 {
		t.Fatalf("zero ranker output: %+v", got)
	}
}

func TestDedupKeepsClosestImage(t *testing.T) {
	r := New(DefaultWeights())
	hits := []core.Hit{
		hit(1, 0.9, 10, 50, 100),
		hit(1, 0.1, 10, 50, 100), // same product, closer image
		hit(2, 0.5, 10, 50, 100),
	}
	got := r.Rank(hits, 10)
	if len(got) != 2 {
		t.Fatalf("dedup failed: %+v", got)
	}
	for _, h := range got {
		if h.ProductID == 1 && h.Dist != 0.1 {
			t.Fatalf("kept the farther image: %+v", h)
		}
	}
}

func TestSimilarityDominates(t *testing.T) {
	r := New(DefaultWeights())
	// A visually wrong match with stellar business metrics must not beat a
	// visually close match with poor metrics.
	hits := []core.Hit{
		hit(1, 0.05, 0, 0, 1),            // close, no sales
		hit(2, 2.0, 1_000_000, 100, 100), // far, blockbuster
	}
	got := r.Rank(hits, 2)
	if got[0].ProductID != 1 {
		t.Fatalf("business metrics overrode similarity: %+v", got)
	}
}

func TestBusinessTiebreak(t *testing.T) {
	r := New(DefaultWeights())
	// Visually identical: sales/praise break the tie.
	hits := []core.Hit{
		hit(1, 0.3, 5, 10, 5000),
		hit(2, 0.3, 50_000, 98, 5000),
	}
	got := r.Rank(hits, 2)
	if got[0].ProductID != 2 {
		t.Fatalf("tiebreak ignored business attributes: %+v", got)
	}
}

func TestPricePenalty(t *testing.T) {
	r := New(Weights{Similarity: 1, Price: 0.5})
	hits := []core.Hit{
		hit(1, 0.3, 0, 0, 1_000_000), // expensive
		hit(2, 0.3, 0, 0, 100),       // cheap
	}
	got := r.Rank(hits, 2)
	if got[0].ProductID != 2 {
		t.Fatalf("price penalty not applied: %+v", got)
	}
}

func TestTruncationToK(t *testing.T) {
	r := New(DefaultWeights())
	var hits []core.Hit
	for i := 0; i < 30; i++ {
		hits = append(hits, hit(uint64(i+1), float32(i)*0.1, 0, 0, 100))
	}
	got := r.Rank(hits, 6)
	if len(got) != 6 {
		t.Fatalf("len = %d, want 6", len(got))
	}
}

func TestScoresMonotoneInOutput(t *testing.T) {
	r := New(DefaultWeights())
	var hits []core.Hit
	for i := 0; i < 20; i++ {
		hits = append(hits, hit(uint64(i+1), float32(i%7)*0.2, uint32(i*100), uint32(i%101), uint32(100+i)))
	}
	got := r.Rank(hits, 20)
	for i := 1; i < len(got); i++ {
		if got[i].Score > got[i-1].Score {
			t.Fatalf("scores not descending at %d: %v > %v", i, got[i].Score, got[i-1].Score)
		}
	}
}

func TestDeterministicOrderOnTies(t *testing.T) {
	r := New(DefaultWeights())
	hits := []core.Hit{
		hit(3, 0.5, 10, 10, 10),
		hit(1, 0.5, 10, 10, 10),
		hit(2, 0.5, 10, 10, 10),
	}
	a := r.Rank(append([]core.Hit(nil), hits...), 3)
	b := r.Rank([]core.Hit{hits[2], hits[0], hits[1]}, 3)
	for i := range a {
		if a[i].ProductID != b[i].ProductID {
			t.Fatalf("tie order input-dependent: %+v vs %+v", a, b)
		}
	}
}

func TestInputNotMutated(t *testing.T) {
	r := New(DefaultWeights())
	hits := []core.Hit{hit(2, 0.9, 1, 1, 1), hit(1, 0.1, 1, 1, 1)}
	_ = r.Rank(hits, 2)
	if hits[0].ProductID != 2 || hits[1].ProductID != 1 {
		t.Fatalf("input reordered: %+v", hits)
	}
	if hits[0].Score != 0 {
		t.Fatalf("input scores mutated: %+v", hits)
	}
}

func TestFilter(t *testing.T) {
	hits := []core.Hit{
		hit(1, 0.1, 5, 0, 100),
		hit(2, 0.2, 50, 0, 100),
		hit(3, 0.3, 7, 0, 100),
		hit(4, 0.4, 90, 0, 100),
	}
	got := Filter(hits, func(h *core.Hit) bool { return h.Sales >= 10 })
	if len(got) != 2 || got[0].ProductID != 2 || got[1].ProductID != 4 {
		t.Fatalf("Filter kept %+v", got)
	}
	// In-place: the result reuses the input's backing array.
	if &got[0] != &hits[0] {
		t.Fatal("Filter allocated a new backing array")
	}
	if out := Filter(hits[:0], func(*core.Hit) bool { return true }); len(out) != 0 {
		t.Fatalf("Filter(empty) = %+v", out)
	}
	if out := Filter(got, func(*core.Hit) bool { return false }); len(out) != 0 {
		t.Fatalf("Filter(none pass) = %+v", out)
	}
}

// mapRank is Rank with the product dedup done through a map, kept as the
// oracle: per product it keeps the first-seen hit among those at the
// smallest distance.
func mapRank(r *Ranker, hits []core.Hit, k int) []core.Hit {
	if len(hits) == 0 || k <= 0 {
		return nil
	}
	best := make(map[uint64]core.Hit, len(hits))
	for _, h := range hits {
		cur, ok := best[h.ProductID]
		if !ok || h.Dist < cur.Dist {
			best[h.ProductID] = h
		}
	}
	out := make([]core.Hit, 0, len(best))
	var maxSales, maxPrice uint32
	for _, h := range best {
		maxSales = max(maxSales, h.Sales)
		maxPrice = max(maxPrice, h.PriceCents)
		out = append(out, h)
	}
	w := r.weights()
	if w.SimScale <= 0 {
		w.SimScale = DefaultWeights().SimScale
	}
	logMaxSales := math.Log1p(float64(maxSales))
	logMaxPrice := math.Log1p(float64(maxPrice))
	for i := range out {
		h := &out[i]
		nd := float64(h.Dist) / w.SimScale
		score := w.Similarity / (1 + nd*nd)
		if logMaxSales > 0 {
			score += w.Sales * math.Log1p(float64(h.Sales)) / logMaxSales
		}
		score += w.Praise * float64(h.Praise) / 100
		if logMaxPrice > 0 {
			score -= w.Price * math.Log1p(float64(h.PriceCents)) / logMaxPrice
		}
		h.Score = score
	}
	slices.SortFunc(out, func(a, b core.Hit) int {
		return cmp.Or(cmp.Compare(b.Score, a.Score), cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.ProductID, b.ProductID))
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// TestRankMatchesMapOracle compares Rank with the map-based oracle on
// random hit lists with repeated products and tied finite distances. Hits
// of one product carry distinct URLs and business attributes, so keeping
// any hit but the oracle's shows up in the output.
func TestRankMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rankers := []*Ranker{New(DefaultWeights()), New(Weights{Similarity: 1, Sales: 0.5, Praise: 0.3, Price: 0.4}), {}}
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(120)
		products := 1 + rng.Intn(n)
		hits := make([]core.Hit, n)
		for i := range hits {
			hits[i] = core.Hit{
				ProductID:  uint64(1 + rng.Intn(products)),
				Dist:       float32(rng.Intn(6)) * 0.125,
				Sales:      uint32(rng.Intn(1000)),
				Praise:     uint32(rng.Intn(101)),
				PriceCents: uint32(100 + rng.Intn(10_000)),
				URL:        fmt.Sprintf("jfs://t%d/%d", trial, i),
			}
		}
		in := slices.Clone(hits)
		r := rankers[trial%len(rankers)]
		k := 1 + rng.Intn(n+5)
		got, want := r.Rank(hits, k), mapRank(r, hits, k)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d, k=%d): Rank\n%+v\noracle\n%+v", trial, n, k, got, want)
		}
		if !slices.Equal(hits, in) {
			t.Fatalf("trial %d: Rank modified its input", trial)
		}
	}
}

func TestRankAllocs(t *testing.T) {
	r := New(DefaultWeights())
	hits := make([]core.Hit, 200)
	for i := range hits {
		hits[i] = hit(uint64(i%70), float32(i%9)*0.1, uint32(i), uint32(i%101), uint32(100+i))
	}
	if n := testing.AllocsPerRun(100, func() { r.Rank(hits, 10) }); n > 1 {
		t.Fatalf("Rank makes %.0f allocations per call, want <= 1", n)
	}
}
