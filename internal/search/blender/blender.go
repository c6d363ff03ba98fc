// Package blender implements the top tier of Fig. 10: "when a blender
// receives an image query request, it extracts the features and sends them
// to all the brokers. The blender also combines and ranks the results and
// returns to the user."
//
// The query pipeline is §2.4's: detect the item in the picture, identify
// its category, extract the item's features, fan out, merge, then rank the
// similar products "according to their sales, praise, price and other
// attributes".
package blender

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"jdvs/internal/cache"
	"jdvs/internal/cnn"
	"jdvs/internal/core"
	"jdvs/internal/imaging"
	"jdvs/internal/metrics"
	"jdvs/internal/ranking"
	"jdvs/internal/rpc"
	"jdvs/internal/search"
)

// Config assembles a blender.
type Config struct {
	// Brokers lists every broker's address. Required: the blender "sends
	// the query to all brokers".
	Brokers []string
	// Extractor embeds query images. Required.
	Extractor *cnn.Extractor
	// Classifier identifies the query item's category for scoped search.
	// Optional; required only for AutoCategory queries.
	Classifier *cnn.Classifier
	// Oversample multiplies TopK when querying brokers so product-level
	// dedup still fills the final page (default 3).
	Oversample int
	// FeatureCacheSize, when > 0, enables the query-side feature cache: up
	// to this many extracted feature vectors keyed by the content hash of
	// the query image bytes, so a re-submitted hot image (the skew
	// e-commerce traffic lives on) skips decode, detection, and the CNN
	// pass entirely (0 disables).
	FeatureCacheSize int
	// Addr is the listen address (":0" for ephemeral).
	Addr string
}

// connsPerBroker sizes each broker connection pool.
const connsPerBroker = 2

// brokerTimeout bounds the whole broker fan-out: a stalled broker degrades
// coverage instead of hanging the query.
const brokerTimeout = 10 * time.Second

// Blender is a running blender node.
type Blender struct {
	srv        *rpc.Server
	brokers    []*rpc.Pool
	extractor  *cnn.Extractor
	classifier *cnn.Classifier
	ranker     *ranking.Ranker
	oversample int
	addr       string

	// features caches (content hash → extracted feature); nil = disabled.
	features *cache.Cache[[]float32]

	queries  metrics.Counter
	failures metrics.Counter
}

// New connects to all brokers and starts serving.
func New(cfg Config) (*Blender, error) {
	if len(cfg.Brokers) == 0 {
		return nil, errors.New("blender: no brokers configured")
	}
	if cfg.Extractor == nil {
		return nil, errors.New("blender: Extractor is required")
	}
	if cfg.Oversample <= 0 {
		cfg.Oversample = 3
	}
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	b := &Blender{
		extractor:  cfg.Extractor,
		classifier: cfg.Classifier,
		ranker:     ranking.New(ranking.DefaultWeights()),
		oversample: cfg.Oversample,
		features:   cache.New[[]float32](cfg.FeatureCacheSize),
	}
	for _, addr := range cfg.Brokers {
		pool, err := rpc.DialPool(addr, connsPerBroker)
		if err != nil {
			b.closePools()
			return nil, fmt.Errorf("blender: dial broker %s: %w", addr, err)
		}
		b.brokers = append(b.brokers, pool)
	}
	b.srv = rpc.NewServer()
	b.srv.Handle(search.MethodQuery, b.handleQuery)
	b.srv.Handle(search.MethodSearch, b.handleSearch)
	b.srv.Handle(search.MethodStats, b.handleStats)
	b.srv.Handle(search.MethodPing, func([]byte) ([]byte, error) { return nil, nil })
	addr, err := b.srv.Listen(cfg.Addr)
	if err != nil {
		b.closePools()
		return nil, err
	}
	b.addr = addr
	return b, nil
}

// Addr returns the blender's RPC address.
func (b *Blender) Addr() string { return b.addr }

// Close stops serving and closes broker connections.
func (b *Blender) Close() {
	b.srv.Close()
	b.closePools()
}

func (b *Blender) closePools() {
	for _, p := range b.brokers {
		if p != nil {
			p.Close()
		}
	}
}

// handleQuery is the image-in, ranked-products-out path.
func (b *Blender) handleQuery(payload []byte) ([]byte, error) {
	q, err := core.DecodeQueryRequest(payload)
	if err != nil {
		return nil, err
	}
	k := q.TopK
	if k <= 0 {
		k = 10
	}

	// §2.4: detect the item, identify its category, extract features —
	// unless this exact image (by content hash) was embedded recently, in
	// which case the whole pipeline head is skipped.
	var fkey string
	feature, cached := []float32(nil), false
	if b.features != nil {
		sum := sha256.Sum256(q.ImageBlob)
		fkey = string(sum[:])
		feature, cached = b.features.Get(fkey)
	}
	if !cached {
		img, err := imaging.Decode(q.ImageBlob)
		if err != nil {
			return nil, fmt.Errorf("blender: decode query image: %w", err)
		}
		if _, err := cnn.Detect(img); err != nil {
			return nil, fmt.Errorf("blender: detect: %w", err)
		}
		if feature, err = b.extractor.Extract(img); err != nil {
			return nil, fmt.Errorf("blender: extract: %w", err)
		}
		if b.features != nil {
			b.features.Put(fkey, feature, int64(4*len(feature)))
		}
	}
	category := q.CategoryScope
	if q.AutoCategory {
		if b.classifier == nil {
			return nil, errors.New("blender: AutoCategory query but no classifier configured")
		}
		cat, err := b.classifier.Classify(feature)
		if err != nil {
			return nil, fmt.Errorf("blender: classify: %w", err)
		}
		category = int32(cat)
	}

	fanReq := &core.SearchRequest{
		Feature:       feature,
		TopK:          k * b.oversample,
		NProbe:        q.NProbe,
		Category:      category,
		MinPriceCents: q.MinPriceCents,
		MaxPriceCents: q.MaxPriceCents,
		MinSales:      q.MinSales,
	}
	resp, err := b.fanout(fanReq)
	if err != nil {
		return nil, err
	}
	// Post-merge re-check: searchers enforce the filter during the scan,
	// but attribute drift mid-query (or an older searcher ignoring the
	// predicate tail) can leak a non-matching hit into the merge.
	resp.Hits = ranking.Filter(resp.Hits, fanReq.AdmitsHit)
	resp.Hits = b.ranker.Rank(resp.Hits, k)
	b.queries.Inc()
	return core.EncodeSearchResponse(resp), nil
}

// handleSearch is the feature-direct path (already-extracted query
// features), used by tests and by services that embed upstream.
func (b *Blender) handleSearch(payload []byte) ([]byte, error) {
	req, err := core.DecodeSearchRequest(payload)
	if err != nil {
		return nil, err
	}
	k := req.TopK
	if k <= 0 {
		k = 10
	}
	fanReq := *req
	fanReq.TopK = k * b.oversample
	resp, err := b.fanout(&fanReq)
	if err != nil {
		return nil, err
	}
	resp.Hits = ranking.Filter(resp.Hits, fanReq.AdmitsHit)
	resp.Hits = b.ranker.Rank(resp.Hits, k)
	b.queries.Inc()
	return core.EncodeSearchResponse(resp), nil
}

// fanout sends the request to every broker and concatenates partial
// results. Partial broker failure degrades results rather than failing the
// query; total failure errors out.
func (b *Blender) fanout(req *core.SearchRequest) (*core.SearchResponse, error) {
	payload := core.EncodeSearchRequest(req)
	ctx, cancel := context.WithTimeout(context.Background(), brokerTimeout)
	defer cancel()

	type partial struct {
		resp *core.SearchResponse
		err  error
	}
	results := make([]partial, len(b.brokers))
	var wg sync.WaitGroup
	for i, pool := range b.brokers {
		wg.Add(1)
		go func(i int, pool *rpc.Pool) {
			defer wg.Done()
			raw, err := pool.Call(ctx, search.MethodSearch, payload)
			if err != nil {
				results[i] = partial{err: err}
				return
			}
			resp, err := core.DecodeSearchResponse(raw)
			results[i] = partial{resp: resp, err: err}
		}(i, pool)
	}
	wg.Wait()

	merged := &core.SearchResponse{}
	okCount := 0
	var lastErr error
	for _, r := range results {
		if r.err != nil {
			lastErr = r.err
			b.failures.Inc()
			continue
		}
		okCount++
		merged.Hits = append(merged.Hits, r.resp.Hits...)
		merged.Scanned += r.resp.Scanned
		merged.Probed += r.resp.Probed
	}
	if okCount == 0 {
		return nil, fmt.Errorf("blender: all brokers failed: %w", lastErr)
	}
	return merged, nil
}

// Stats is the blender's stats payload.
type Stats struct {
	Brokers  int   `json:"brokers"`
	Queries  int64 `json:"queries"`
	Failures int64 `json:"failures"`
	// Feature-cache counters (all zero when the cache is disabled): hits
	// are queries whose decode/detect/extract head was skipped because the
	// same image bytes were embedded recently.
	FeatureCacheHits    int64 `json:"feature_cache_hits"`
	FeatureCacheMisses  int64 `json:"feature_cache_misses"`
	FeatureCacheEntries int64 `json:"feature_cache_entries"`
	FeatureCacheBytes   int64 `json:"feature_cache_bytes"`
}

func (b *Blender) handleStats([]byte) ([]byte, error) {
	cs := b.features.Stats()
	return json.Marshal(Stats{
		Brokers:             len(b.brokers),
		Queries:             b.queries.Value(),
		Failures:            b.failures.Value(),
		FeatureCacheHits:    cs.Hits,
		FeatureCacheMisses:  cs.Misses,
		FeatureCacheEntries: cs.Entries,
		FeatureCacheBytes:   cs.Bytes,
	})
}
