// Command jdvs-client queries a running cluster (local or multi-process):
// it regenerates the shared synthetic catalog, takes a fresh "camera
// photo" of a chosen product, and prints the ranked results.
//
//	jdvs-client -addr 127.0.0.1:7001 -query-product 42 -k 6
//
// The catalog flags must match the jdvs-indexer run that built the index —
// they define the shared synthetic world.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"jdvs/internal/catalog"
	"jdvs/internal/core"
	"jdvs/internal/search/client"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "jdvs-client:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr       = flag.String("addr", "127.0.0.1:7001", "frontend (or blender) address")
		products   = flag.Int("products", 5_000, "catalog size (must match the indexer)")
		categories = flag.Int("categories", 12, "catalog categories (must match the indexer)")
		seed       = flag.Int64("seed", 1, "catalog seed (must match the indexer)")
		queryIdx   = flag.Int("query-product", 42, "index of the product to photograph")
		k          = flag.Int("k", 6, "results wanted")
		nprobe     = flag.Int("nprobe", 0, "inverted lists probed per searcher (0 = server default)")
		scoped     = flag.Bool("scoped", false, "restrict results to the query product's own category")
		minPrice   = flag.Float64("min-price", 0, "only admit results priced at least this (yuan; 0 = unbounded)")
		maxPrice   = flag.Float64("max-price", 0, "only admit results priced at most this (yuan; 0 = unbounded)")
		minSales   = flag.Uint64("min-sales", 0, "only admit results with at least this sales volume (0 = unbounded)")
		timeout    = flag.Duration("timeout", 10*time.Second, "query timeout")
	)
	flag.Parse()
	minCents, maxCents, sales, err := filterBounds(*minPrice, *maxPrice, *minSales)
	if err != nil {
		return err
	}

	cat, err := catalog.Generate(catalog.Config{
		Products: *products, Categories: *categories, Seed: *seed,
	}, nil) // nil store: we only need latents to photograph, not blobs
	if err != nil {
		return fmt.Errorf("regenerate catalog: %w", err)
	}
	if *queryIdx < 0 || *queryIdx >= len(cat.Products) {
		return fmt.Errorf("-query-product %d out of range [0,%d)", *queryIdx, len(cat.Products))
	}
	target := &cat.Products[*queryIdx]

	c, err := client.Dial(*addr, 2)
	if err != nil {
		return err
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	t0 := time.Now()
	scope := int32(core.AllCategories)
	if *scoped {
		scope = int32(target.Category)
	}
	resp, err := c.Query(ctx, &core.QueryRequest{
		ImageBlob:     cat.QueryImage(target).Encode(),
		TopK:          *k,
		NProbe:        *nprobe,
		CategoryScope: scope,
		MinPriceCents: minCents,
		MaxPriceCents: maxCents,
		MinSales:      sales,
	})
	if err != nil {
		return fmt.Errorf("query: %w", err)
	}
	// Lists probed 0 with candidates scanned means every searcher answered
	// the filtered query by scoring its admitted rows exactly.
	fmt.Printf("photo of product %d (%s) -> %d results in %s (%d candidates scanned, %d lists probed)\n\n",
		target.ID, cat.CategoryName(target.Category), len(resp.Hits),
		time.Since(t0).Round(time.Microsecond), resp.Scanned, resp.Probed)
	fmt.Printf("%4s  %9s  %-12s  %8s  %8s  %7s  %9s\n", "rank", "product", "category", "dist", "score", "sales", "price")
	for i, h := range resp.Hits {
		marker := " "
		if h.ProductID == target.ID {
			marker = "*"
		}
		fmt.Printf("%3d%s  %9d  %-12s  %8.4f  %8.4f  %7d  ¥%8.2f\n",
			i+1, marker, h.ProductID, cat.CategoryName(h.Category), h.Dist, h.Score, h.Sales, float64(h.PriceCents)/100)
	}
	return nil
}

// maxPriceYuan is the largest price a uint32 count of cents holds.
const maxPriceYuan = math.MaxUint32 / 100.0

// filterBounds converts the filter flags to the request's fields: prices
// in yuan round to the nearest cent, and a value its uint32 field cannot
// hold is an error naming the flag, not a wrapped or truncated filter.
func filterBounds(minPrice, maxPrice float64, minSales uint64) (minCents, maxCents, sales uint32, err error) {
	for _, p := range []struct {
		flag  string
		yuan  float64
		cents *uint32
	}{{"-min-price", minPrice, &minCents}, {"-max-price", maxPrice, &maxCents}} {
		if !(p.yuan >= 0 && p.yuan <= maxPriceYuan) {
			return 0, 0, 0, fmt.Errorf("%s %g out of range [0, %.2f] yuan", p.flag, p.yuan, maxPriceYuan)
		}
		*p.cents = uint32(math.Round(p.yuan * 100))
	}
	if minSales > math.MaxUint32 {
		return 0, 0, 0, fmt.Errorf("-min-sales %d out of range [0, %d]", minSales, uint32(math.MaxUint32))
	}
	return minCents, maxCents, uint32(minSales), nil
}
