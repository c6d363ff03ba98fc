// Package workload generates the evaluation's traffic: the Table 1 update
// mix (315M attribute updates : 521M additions — 513M of them re-additions
// — : 141M deletions), the diurnal hourly rate shape of Fig. 11(a) peaking
// at 11:00, and the concurrent query-client emulation of §3.2 ("the client
// machine emulates a different number of concurrent users by sending image
// query requests to the visual search system").
package workload

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"jdvs/internal/catalog"
	"jdvs/internal/core"
	"jdvs/internal/imagestore"
	"jdvs/internal/metrics"
	"jdvs/internal/msg"
	"jdvs/internal/search/client"
)

// Table 1 proportions (millions of image updates on 2018-08-04).
const (
	Table1AttrUpdates    = 315
	Table1Additions      = 521
	Table1ReusedAdds     = 513
	Table1Deletions      = 141
	Table1Total          = 977
	Table1FreshAddsShare = float64(Table1Additions-Table1ReusedAdds) / float64(Table1Additions)
)

// MixConfig parameterises an update-event generator.
type MixConfig struct {
	// Weights for each event kind; defaults are Table 1's proportions.
	AttrWeight, AddWeight, DeleteWeight float64
	// FreshAddFraction is the share of additions that are brand-new
	// products requiring feature extraction (default Table1FreshAddsShare
	// ≈ 1.5%).
	FreshAddFraction float64
	// Seed drives event selection.
	Seed int64
}

func (c *MixConfig) fill() {
	if c.AttrWeight <= 0 && c.AddWeight <= 0 && c.DeleteWeight <= 0 {
		c.AttrWeight = Table1AttrUpdates
		c.AddWeight = Table1Additions
		c.DeleteWeight = Table1Deletions
	}
	if c.FreshAddFraction <= 0 {
		c.FreshAddFraction = Table1FreshAddsShare
	}
}

// MixGen emits update events with the configured mix against a catalog.
// Additions of existing products exercise the feature-reuse path
// ("products which were removed from the market and put back again",
// §3.1); fresh additions mint a new product, upload its images, and force
// extraction. Not safe for concurrent use.
type MixGen struct {
	cfg    MixConfig
	cat    *catalog.Catalog
	images *imagestore.Store
	rng    *rand.Rand

	listed   []int // indices into cat.Products currently on the market
	delisted []int
	pos      map[uint64]int // productID → slice position bookkeeping

	nextID uint64
	seq    uint64
}

// NewMix builds a generator. All catalog products start listed.
func NewMix(cfg MixConfig, cat *catalog.Catalog, images *imagestore.Store) *MixGen {
	cfg.fill()
	g := &MixGen{
		cfg:    cfg,
		cat:    cat,
		images: images,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		pos:    make(map[uint64]int),
	}
	for i := range cat.Products {
		g.listed = append(g.listed, i)
		if cat.Products[i].ID >= g.nextID {
			g.nextID = cat.Products[i].ID + 1
		}
	}
	return g
}

// Kind labels generated events for accounting.
type Kind string

// Event kinds as counted in Table 1.
const (
	KindAttrUpdate Kind = "update"
	KindAddition   Kind = "addition"
	KindDeletion   Kind = "deletion"
)

// Next emits the next event. fresh reports whether the event is an
// addition of a never-before-seen product (extraction required).
func (g *MixGen) Next() (u *msg.ProductUpdate, kind Kind, fresh bool, err error) {
	total := g.cfg.AttrWeight + g.cfg.AddWeight + g.cfg.DeleteWeight
	x := g.rng.Float64() * total
	g.seq++
	switch {
	case x < g.cfg.AttrWeight:
		return g.attrUpdate()
	case x < g.cfg.AttrWeight+g.cfg.AddWeight:
		return g.addition()
	default:
		return g.deletion()
	}
}

func (g *MixGen) attrUpdate() (*msg.ProductUpdate, Kind, bool, error) {
	if len(g.listed) == 0 {
		return g.addition() // nothing to update; degrade to an addition
	}
	idx := g.listed[g.rng.Intn(len(g.listed))]
	p := &g.cat.Products[idx]
	p.Sales += uint32(g.rng.Intn(50))
	p.Praise = uint32(g.rng.Intn(101))
	return &msg.ProductUpdate{
		Type:       msg.TypeUpdateAttrs,
		ProductID:  p.ID,
		Category:   p.Category,
		Sales:      p.Sales,
		Praise:     p.Praise,
		PriceCents: p.PriceCents,
		ImageURLs:  append([]string(nil), p.ImageURLs...),
		Seq:        g.seq,
	}, KindAttrUpdate, false, nil
}

func (g *MixGen) addition() (*msg.ProductUpdate, Kind, bool, error) {
	fresh := g.rng.Float64() < g.cfg.FreshAddFraction
	if !fresh && len(g.delisted) == 0 && len(g.listed) == 0 {
		fresh = true
	}
	if fresh {
		p, err := g.cat.NewProduct(g.nextID)
		if err != nil {
			return nil, "", false, err
		}
		g.nextID++
		if g.images != nil {
			if err := g.cat.UploadImages(&p, g.images); err != nil {
				return nil, "", false, err
			}
		}
		g.cat.Products = append(g.cat.Products, p)
		g.listed = append(g.listed, len(g.cat.Products)-1)
		return g.event(msg.TypeAddProduct, &g.cat.Products[len(g.cat.Products)-1]), KindAddition, true, nil
	}
	// Re-addition: prefer a delisted product (the put-back-on-market path);
	// fall back to re-announcing a listed one (idempotent reuse).
	var idx int
	if len(g.delisted) > 0 {
		j := g.rng.Intn(len(g.delisted))
		idx = g.delisted[j]
		g.delisted[j] = g.delisted[len(g.delisted)-1]
		g.delisted = g.delisted[:len(g.delisted)-1]
		g.listed = append(g.listed, idx)
	} else {
		idx = g.listed[g.rng.Intn(len(g.listed))]
	}
	return g.event(msg.TypeAddProduct, &g.cat.Products[idx]), KindAddition, false, nil
}

func (g *MixGen) deletion() (*msg.ProductUpdate, Kind, bool, error) {
	if len(g.listed) == 0 {
		return g.addition()
	}
	j := g.rng.Intn(len(g.listed))
	idx := g.listed[j]
	g.listed[j] = g.listed[len(g.listed)-1]
	g.listed = g.listed[:len(g.listed)-1]
	g.delisted = append(g.delisted, idx)
	return g.event(msg.TypeRemoveProduct, &g.cat.Products[idx]), KindDeletion, false, nil
}

func (g *MixGen) event(t msg.Type, p *catalog.Product) *msg.ProductUpdate {
	return &msg.ProductUpdate{
		Type:       t,
		ProductID:  p.ID,
		Category:   p.Category,
		Sales:      p.Sales,
		Praise:     p.Praise,
		PriceCents: p.PriceCents,
		ImageURLs:  append([]string(nil), p.ImageURLs...),
		Seq:        g.seq,
	}
}

// DiurnalShape is the relative hourly rate of real-time index updates over
// a day, shaped like Fig. 11(a): a deep overnight trough, a fast morning
// ramp to the 11:00 peak, a lunch dip, and an evening shoulder.
var DiurnalShape = [24]float64{
	12, 8, 5, 4, 3, 4, // 00–05
	8, 15, 30, 52, 70, 80, // 06–11 (peak 80 at 11:00)
	68, 60, 58, 55, 52, 50, // 12–17
	55, 60, 58, 45, 30, 18, // 18–23
}

// HourOfEvent maps event i of total onto an hour 0..23 following shape's
// cumulative distribution — event streams generated with it reproduce the
// hourly rate curve.
func HourOfEvent(i, total int, shape [24]float64) int {
	var sum float64
	for _, v := range shape {
		sum += v
	}
	target := (float64(i) + 0.5) / float64(total) * sum
	var acc float64
	for h := 0; h < 24; h++ {
		acc += shape[h]
		if target <= acc {
			return h
		}
	}
	return 23
}

// QueryLoadConfig parameterises a concurrent query run. Every query asks
// for a page of QueryTopK results.
type QueryLoadConfig struct {
	// Addr is the frontend (or blender) address.
	Addr string
	// Concurrency is the number of emulated users. Required.
	Concurrency int
	// Duration bounds the run (default 3s). Queries in flight at the
	// deadline complete and are counted.
	Duration time.Duration
	// NProbe is each query's probe width (0 = searcher default).
	NProbe int
	// Blobs supplies the pre-encoded query images (MakeQueryBlobs).
	// Required: the run never touches a catalog, which an update generator
	// may own concurrently.
	Blobs [][]byte
	// BlobCategories, when non-nil, scopes each query to the category of
	// its blob (aligned index-for-index with Blobs — MakeScopedQueryBlobs
	// builds the pair): the category-skewed filtered workload. Nil
	// searches all categories.
	BlobCategories []int32
	// MinPriceCents is a price-floor predicate attached to every query
	// (0 = unbounded), pushed down into the searchers' bitmap-admission
	// scan.
	MinPriceCents uint32
	// ZipfS, when > 1, skews blob selection with a zipf distribution of
	// exponent s over the query pool (rank 0 hottest) — the heavy-skew
	// shape of e-commerce query traffic, where a few hero images dominate.
	// <= 1 keeps the uniform pick.
	ZipfS float64
	// Seed selects query images.
	Seed int64
}

// QueryTopK is the page size every load query asks for.
const QueryTopK = 10

// MakeQueryBlobs pre-generates n encoded query photos of random catalog
// products, for passing to RunQueryLoad as QueryLoadConfig.Blobs.
func MakeQueryBlobs(cat *catalog.Catalog, n int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	blobs := make([][]byte, n)
	for i := range blobs {
		p := &cat.Products[rng.Intn(len(cat.Products))]
		blobs[i] = cat.QueryImage(p).Encode()
	}
	return blobs
}

// MakeScopedQueryBlobs pre-generates n encoded query photos of random
// catalog products along with each query product's own category, for the
// category-scoped filtered workload (QueryLoadConfig.Blobs +
// BlobCategories).
func MakeScopedQueryBlobs(cat *catalog.Catalog, n int, seed int64) ([][]byte, []int32) {
	rng := rand.New(rand.NewSource(seed))
	blobs := make([][]byte, n)
	cats := make([]int32, n)
	for i := range blobs {
		p := &cat.Products[rng.Intn(len(cat.Products))]
		blobs[i] = cat.QueryImage(p).Encode()
		cats[i] = int32(p.Category)
	}
	return blobs, cats
}

// QueryLoadResult summarises a run.
type QueryLoadResult struct {
	Queries int64
	Errors  int64
	// FullPages counts queries whose response filled the whole page —
	// the page-fill rate selective filters threaten.
	FullPages int64
	Wall      time.Duration
	QPS       float64
	Latency   *metrics.Histogram
}

// RunQueryLoad emulates cfg.Concurrency users issuing back-to-back visual
// queries against a running cluster, exactly like the §3.2 client machine.
func RunQueryLoad(cfg QueryLoadConfig) (*QueryLoadResult, error) {
	if cfg.Concurrency <= 0 {
		return nil, errors.New("workload: Concurrency must be positive")
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 3 * time.Second
	}
	blobs := cfg.Blobs
	if len(blobs) == 0 {
		return nil, errors.New("workload: no query blobs")
	}
	if cfg.BlobCategories != nil && len(cfg.BlobCategories) != len(blobs) {
		return nil, errors.New("workload: BlobCategories must align with Blobs")
	}

	conns := cfg.Concurrency
	if conns > 16 {
		conns = 16
	}
	cl, err := client.Dial(cfg.Addr, conns)
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	res := &QueryLoadResult{Latency: &metrics.Histogram{}}
	var queries, errs, fullPages atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	start := time.Now()
	deadline := start.Add(cfg.Duration)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			local := rand.New(rand.NewSource(cfg.Seed + int64(w)*7919))
			var zipf *rand.Zipf
			if cfg.ZipfS > 1 && len(blobs) > 1 {
				zipf = rand.NewZipf(local, cfg.ZipfS, 1, uint64(len(blobs)-1))
			}
			for time.Now().Before(deadline) {
				bi := 0
				if zipf != nil {
					bi = int(zipf.Uint64())
				} else {
					bi = local.Intn(len(blobs))
				}
				// CategoryScope -1 searches all categories (the §3.2
				// clients measure raw retrieval throughput); the filtered
				// workload scopes each query to its product's category.
				scope := int32(-1)
				if cfg.BlobCategories != nil {
					scope = cfg.BlobCategories[bi]
				}
				q := &core.QueryRequest{
					ImageBlob:     blobs[bi],
					TopK:          QueryTopK,
					NProbe:        cfg.NProbe,
					CategoryScope: scope,
					MinPriceCents: cfg.MinPriceCents,
				}
				t0 := time.Now()
				resp, err := cl.Query(ctx, q)
				lat := time.Since(t0)
				if err != nil {
					errs.Add(1)
					continue
				}
				queries.Add(1)
				if len(resp.Hits) >= QueryTopK {
					fullPages.Add(1)
				}
				res.Latency.Record(lat)
			}
		}(w)
	}
	wg.Wait()
	res.Wall = time.Since(start)
	res.Queries = queries.Load()
	res.Errors = errs.Load()
	res.FullPages = fullPages.Load()
	if res.Wall > 0 {
		res.QPS = float64(res.Queries) / res.Wall.Seconds()
	}
	return res, nil
}
