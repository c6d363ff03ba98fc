// Package ranking implements the blender's final result ranking (§2.4):
// after the nearest images come back from the brokers, "the similar
// products are ranked according to their sales, praise, price and other
// attributes".
//
// The score blends visual similarity with normalised business signals.
// Weights are configurable; the defaults keep similarity dominant (a
// visually wrong result is never rescued by sales volume) with business
// attributes breaking ties among close matches — the behaviour visible in
// the paper's Fig. 14 examples, where the same item in different shops is
// ordered by attractiveness.
package ranking

import (
	"cmp"
	"math"
	"slices"

	"jdvs/internal/core"
)

// Weights configures the blended score.
type Weights struct {
	// Similarity weights the visual match, mapped as 1/(1+(dist/SimScale)²)
	// — a kernel that stays discriminative at the small distances where
	// near-duplicates live, so a markedly closer match cannot be buried by
	// business signals.
	Similarity float64
	// SimScale is the distance at which similarity halves (default 0.2;
	// unit-norm feature spaces put same-product photos well inside it).
	SimScale float64
	// Sales weights log-scaled sales volume.
	Sales float64
	// Praise weights the praise rate (0..100).
	Praise float64
	// Price penalises expensive items (log-scaled, relative to the most
	// expensive candidate).
	Price float64
}

// DefaultWeights keeps similarity dominant with business tiebreaks.
func DefaultWeights() Weights {
	return Weights{Similarity: 1.0, SimScale: 0.2, Sales: 0.08, Praise: 0.04, Price: 0.03}
}

// Ranker scores and orders hits. The zero value uses DefaultWeights.
type Ranker struct {
	w      Weights
	filled bool
}

// New returns a Ranker with the given weights.
func New(w Weights) *Ranker { return &Ranker{w: w, filled: true} }

func (r *Ranker) weights() Weights {
	if !r.filled {
		return DefaultWeights()
	}
	return r.w
}

// Filter returns the hits for which keep is true, reusing the input
// slice's backing array. The blender applies it with SearchRequest.AdmitsHit
// before ranking: searchers push predicates down into the shard scan, but a
// hit can drift out of the filter between the scan and the response (a
// concurrent attribute update), and an older searcher that predates the
// predicate wire extension does not filter at all — the post-merge re-check
// restores exact semantics either way.
func Filter(hits []core.Hit, keep func(*core.Hit) bool) []core.Hit {
	out := hits[:0]
	for i := range hits {
		if keep(&hits[i]) {
			out = append(out, hits[i])
		}
	}
	return out
}

// Rank deduplicates hits by product (keeping each product's visually
// closest image), scores them, and returns the top k ordered by descending
// score. The input slice is not modified.
func (r *Ranker) Rank(hits []core.Hit, k int) []core.Hit {
	if len(hits) == 0 || k <= 0 {
		return nil
	}
	// Dedup by product: a product with five near-identical photos should
	// occupy one result slot, not five (Fig. 14 shows distinct products).
	// Sorting a copy by (product, distance, input position) puts each
	// product's first-seen closest hit at the head of its run, and
	// compaction keeps only the heads. Score holds the input position
	// until scoring overwrites it: with that tiebreak the unstable sort,
	// faster here than a stable one, keeps equal hits in input order.
	out := slices.Clone(hits)
	for i := range out {
		out[i].Score = float64(i)
	}
	slices.SortFunc(out, func(a, b core.Hit) int {
		if a.ProductID != b.ProductID {
			return cmp.Compare(a.ProductID, b.ProductID)
		}
		return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.Score, b.Score))
	})
	out = slices.CompactFunc(out, func(a, b core.Hit) bool { return a.ProductID == b.ProductID })
	var maxSales uint32
	var maxPrice uint32
	for i := range out {
		maxSales = max(maxSales, out[i].Sales)
		maxPrice = max(maxPrice, out[i].PriceCents)
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
		sim := 1 / (1 + nd*nd)
		score := w.Similarity * sim
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
		// Descending score; equal scores order deterministically by
		// distance, then product (unique after the dedup above).
		return cmp.Or(
			cmp.Compare(b.Score, a.Score),
			cmp.Compare(a.Dist, b.Dist),
			cmp.Compare(a.ProductID, b.ProductID),
		)
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}
