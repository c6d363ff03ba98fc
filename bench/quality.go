package main

import (
	"context"
	"fmt"
	"sort"

	"jdvs/internal/cluster"
	"jdvs/internal/core"
	"jdvs/internal/imaging"
	"jdvs/internal/search/client"
	"jdvs/internal/vecmath"
)

// quality is the correctness side of a run, taken untimed after the load.
type quality struct {
	recall   float64 // retrieval recall@10 against brute force, before ranking
	selfHit  float64 // share of queries whose own product is on the page
	pageFill float64 // share of queries whose page holds TopK hits
}

// searchRequest is the feature-level form of pool entry i, as a blender
// would fan it out (k results wanted per searcher).
func (t *traffic) searchRequest(c *cluster.Cluster, i, k int) (*core.SearchRequest, error) {
	img, err := imaging.Decode(t.blobs[i])
	if err != nil {
		return nil, err
	}
	f, err := c.Extractor.Extract(img)
	if err != nil {
		return nil, err
	}
	req := &core.SearchRequest{Feature: f, TopK: k, Category: core.AllCategories}
	if t.scoped {
		req.Category = t.cats[i]
		req.MinPriceCents = bandMinCents
		req.MaxPriceCents = bandMaxCents
	}
	return req, nil
}

// searcherClients dials the primary searcher of every partition.
func searcherClients(c *cluster.Cluster) ([]*client.Client, func(), error) {
	var cls []*client.Client
	closeAll := func() {
		for _, cl := range cls {
			cl.Close()
		}
	}
	for p := 0; p < c.Partitions(); p++ {
		cl, err := client.Dial(c.Searcher(p, 0).Addr(), 1)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		cls = append(cls, cl)
	}
	return cls, closeAll, nil
}

// oracleTopK brute-forces the k nearest valid, admitted images over every
// partition's live shard.
func oracleTopK(c *cluster.Cluster, req *core.SearchRequest, k int) map[core.ImageRef]bool {
	type cand struct {
		ref  core.ImageRef
		dist float32
	}
	best := make([]cand, 0, k+1)
	filtered := req.Category >= 0 || req.HasPredicates()
	for p := 0; p < c.Partitions(); p++ {
		sh := c.Searcher(p, 0).Shard()
		n := core.ImageID(sh.Stats().Images)
		for id := core.ImageID(0); id < n; id++ {
			if !sh.Valid(id) {
				continue
			}
			if filtered {
				a, ok := sh.Attrs(id)
				if !ok || (req.Category >= 0 && int32(a.Category) != req.Category) || !req.MatchesAttrs(a.Sales, a.PriceCents) {
					continue
				}
			}
			d := vecmath.L2Squared(req.Feature, sh.Feature(id))
			if len(best) == k && d >= best[k-1].dist {
				continue
			}
			at := sort.Search(len(best), func(i int) bool { return best[i].dist > d })
			best = append(best, cand{})
			copy(best[at+1:], best[at:])
			best[at] = cand{core.ImageRef{Partition: core.PartitionID(p), Local: id}, d}
			if len(best) > k {
				best = best[:k]
			}
		}
	}
	out := make(map[core.ImageRef]bool, len(best))
	for _, b := range best {
		out[b.ref] = true
	}
	return out
}

// measureQuality runs n oracle queries. The cluster must be quiescent: no
// update stream, queue drained.
func measureQuality(ctx context.Context, c *cluster.Cluster, tr *traffic, n int) (quality, error) {
	cls, closeAll, err := searcherClients(c)
	if err != nil {
		return quality{}, err
	}
	defer closeAll()
	front, err := client.Dial(c.FrontendAddr(), 1)
	if err != nil {
		return quality{}, err
	}
	defer front.Close()

	var found, wanted, self, full int
	for i := 0; i < n && ctx.Err() == nil; i++ {
		idx := i % len(tr.blobs)
		// Searchers are asked the way a blender asks them, for
		// TopK x oversample, and the merged top TopK is what is judged.
		req, err := tr.searchRequest(c, idx, topK*blenderOversample)
		if err != nil {
			return quality{}, err
		}
		var hits []core.Hit
		for p, cl := range cls {
			resp, err := cl.SearchFeature(ctx, req)
			if err != nil {
				return quality{}, fmt.Errorf("quality: searcher p%d: %w", p, err)
			}
			hits = append(hits, resp.Hits...)
		}
		sort.Slice(hits, func(a, b int) bool { return hits[a].Dist < hits[b].Dist })
		if len(hits) > topK {
			hits = hits[:topK]
		}
		want := oracleTopK(c, req, topK)
		wanted += len(want)
		for _, h := range hits {
			if want[h.Image] {
				found++
			}
		}

		page, err := front.Query(ctx, tr.query(idx))
		if err != nil {
			return quality{}, fmt.Errorf("quality: query: %w", err)
		}
		if len(page.Hits) >= topK {
			full++
		}
		for _, h := range page.Hits {
			if h.ProductID == tr.products[idx] {
				self++
				break
			}
		}
	}
	return quality{
		recall:   ratio(float64(found), float64(wanted)),
		selfHit:  ratio(float64(self), float64(n)),
		pageFill: ratio(float64(full), float64(n)),
	}, nil
}
