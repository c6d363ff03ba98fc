// Package catalog is the synthetic product-catalog substrate: the source of
// products, images and attribute distributions that stand in for JD's
// 100-billion-image corpus.
//
// Structure mirrors what makes e-commerce visual search data interesting:
// products belong to categories; a category has a feature-space "look";
// products within a category are similar but distinct; a product's several
// photos are near-duplicates of each other. Sales follow a Zipf-like
// distribution and prices are category-scaled, so business ranking (§2.4)
// has realistic signal.
//
// All generation is deterministic for a given seed.
package catalog

import (
	"fmt"
	"math/rand"
	"sync"

	"jdvs/internal/core"
	"jdvs/internal/imagestore"
	"jdvs/internal/imaging"
)

// CategoryNames are the stock category labels (cycled if more categories
// are requested). They are cosmetic; search logic only sees numeric IDs.
var CategoryNames = []string{
	"dresses", "sneakers", "handbags", "watches", "phones",
	"laptops", "headphones", "jackets", "sunglasses", "toys",
	"cookware", "furniture", "cosmetics", "snacks", "cameras",
	"bicycles", "luggage", "jewelry", "appliances", "books",
}

// Config controls catalog generation.
type Config struct {
	// Categories is the number of product categories (default 12).
	Categories int
	// Products is the number of products (default 1000).
	Products int
	// ImagesPerProduct is the range of photos per product (default 1..3).
	MinImages, MaxImages int
	// Seed drives all randomness.
	Seed int64
	// CategorySpread scales how far product latents deviate from their
	// category prototype (default 0.30).
	CategorySpread float64
	// ImageNoise scales how much a product's photos deviate from the
	// product latent (default 0.05).
	ImageNoise float64
	// PayloadBytes sizes each synthetic image blob (default 2048).
	PayloadBytes int
}

func (c *Config) fill() {
	if c.Categories <= 0 {
		c.Categories = 12
	}
	if c.Products <= 0 {
		c.Products = 1000
	}
	if c.MinImages <= 0 {
		c.MinImages = 1
	}
	if c.MaxImages < c.MinImages {
		c.MaxImages = c.MinImages + 2
	}
	if c.CategorySpread <= 0 {
		c.CategorySpread = 0.30
	}
	if c.ImageNoise <= 0 {
		c.ImageNoise = 0.05
	}
	if c.PayloadBytes <= 0 {
		c.PayloadBytes = 2048
	}
}

// Category is one product category with its latent-space prototype.
type Category struct {
	ID        uint16
	Name      string
	Prototype []float32 // LatentDim components
}

// Product is one synthetic product.
type Product struct {
	ID         uint64
	Category   uint16
	Latent     []float32
	Sales      uint32
	Praise     uint32
	PriceCents uint32
	ImageURLs  []string
}

// Attrs returns the product's attribute record for one of its images.
func (p *Product) Attrs(url string) core.Attrs {
	return core.Attrs{
		ProductID:  p.ID,
		Sales:      p.Sales,
		Praise:     p.Praise,
		PriceCents: p.PriceCents,
		Category:   p.Category,
		URL:        url,
	}
}

// Catalog is a generated corpus.
//
// Concurrency: the rng-backed generation methods (NewProduct,
// UploadImages, QueryImage) serialise internally, so distinct goroutines
// may generate concurrently. The Products slice itself
// is NOT synchronised — a goroutine growing the catalog (a workload
// generator minting fresh products) must be the only one touching
// Products for the duration; query sides should pre-generate their probe
// images first (workload.MakeQueryBlobs).
type Catalog struct {
	Categories []Category
	Products   []Product
	cfg        Config

	mu  sync.Mutex // guards rng
	rng *rand.Rand
}

// Generate builds a catalog and uploads every product image into store
// (pass nil to skip blob generation, e.g. for pure index benchmarks).
func Generate(cfg Config, store *imagestore.Store) (*Catalog, error) {
	cfg.fill()
	rng := rand.New(rand.NewSource(cfg.Seed))
	c := &Catalog{cfg: cfg, rng: rng}

	c.Categories = make([]Category, cfg.Categories)
	for i := range c.Categories {
		proto := make([]float32, imaging.LatentDim)
		for d := range proto {
			proto[d] = float32(rng.NormFloat64())
		}
		c.Categories[i] = Category{
			ID:        uint16(i),
			Name:      CategoryNames[i%len(CategoryNames)],
			Prototype: proto,
		}
	}

	c.Products = make([]Product, 0, cfg.Products)
	for i := 0; i < cfg.Products; i++ {
		p, err := c.newProduct(uint64(i + 1))
		if err != nil {
			return nil, err
		}
		if store != nil {
			if err := c.UploadImages(&p, store); err != nil {
				return nil, err
			}
		}
		c.Products = append(c.Products, p)
	}
	return c, nil
}

// newProduct draws a product from a random category.
func (c *Catalog) newProduct(id uint64) (Product, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cat := &c.Categories[c.rng.Intn(len(c.Categories))]
	latent := make([]float32, imaging.LatentDim)
	for d := range latent {
		latent[d] = cat.Prototype[d] + float32(c.rng.NormFloat64()*c.cfg.CategorySpread)
	}
	// Zipf-ish sales: a few blockbusters, a long tail.
	sales := uint32(c.rng.Intn(100))
	if c.rng.Float64() < 0.05 {
		sales = uint32(10_000 + c.rng.Intn(990_000))
	} else if c.rng.Float64() < 0.3 {
		sales = uint32(100 + c.rng.Intn(9_900))
	}
	p := Product{
		ID:         id,
		Category:   cat.ID,
		Latent:     latent,
		Sales:      sales,
		Praise:     uint32(c.rng.Intn(101)), // praise rate 0..100
		PriceCents: uint32((1 + c.rng.Intn(500)) * 100 * (1 + int(cat.ID)%5)),
	}
	n := c.cfg.MinImages + c.rng.Intn(c.cfg.MaxImages-c.cfg.MinImages+1)
	p.ImageURLs = make([]string, n)
	for j := 0; j < n; j++ {
		p.ImageURLs[j] = ImageURL(id, j)
	}
	return p, nil
}

// NewProduct mints a fresh product with a new unique ID — used by workload
// generators to create never-seen-before products mid-run.
func (c *Catalog) NewProduct(id uint64) (Product, error) {
	return c.newProduct(id)
}

// UploadImages generates and stores the blobs for every image of p.
func (c *Catalog) UploadImages(p *Product, store *imagestore.Store) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, url := range p.ImageURLs {
		im := imaging.Generate(c.rng, p.Latent, p.Category, imaging.GenConfig{
			PayloadBytes: c.cfg.PayloadBytes,
			Noise:        c.cfg.ImageNoise,
		})
		if err := store.Put(url, im.Encode()); err != nil {
			return fmt.Errorf("catalog: upload %s: %w", url, err)
		}
	}
	return nil
}

// QueryImage generates a fresh, never-indexed photo of product p — the
// "user points their camera at the product" query of §2.4 and Fig. 14.
func (c *Catalog) QueryImage(p *Product) *imaging.Image {
	c.mu.Lock()
	defer c.mu.Unlock()
	return imaging.Generate(c.rng, p.Latent, p.Category, imaging.GenConfig{
		PayloadBytes: c.cfg.PayloadBytes,
		Noise:        c.cfg.ImageNoise * 2, // camera photos are noisier than studio shots
	})
}

// ImageURL is the canonical URL scheme for product photo j of product id.
func ImageURL(productID uint64, j int) string {
	return fmt.Sprintf("jfs://img.jd.local/p%d/img%d.jpg", productID, j)
}

// CategoryName returns the display name for a category ID.
func (c *Catalog) CategoryName(id uint16) string {
	if int(id) >= len(c.Categories) {
		return fmt.Sprintf("category-%d", id)
	}
	return c.Categories[id].Name
}
