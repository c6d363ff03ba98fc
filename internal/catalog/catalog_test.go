package catalog

import (
	"strings"
	"testing"

	"jdvs/internal/imagestore/imagestoretest"
	"jdvs/internal/imaging"
	"jdvs/internal/vecmath"
)

func TestGenerateBasics(t *testing.T) {
	store := imagestoretest.New(t)
	cat, err := Generate(Config{Products: 50, Categories: 5, Seed: 1}, store)
	if err != nil {
		t.Fatal(err)
	}
	if len(cat.Categories) != 5 {
		t.Fatalf("categories = %d", len(cat.Categories))
	}
	if len(cat.Products) != 50 {
		t.Fatalf("products = %d", len(cat.Products))
	}
	totalImages := 0
	seenIDs := make(map[uint64]bool)
	for i := range cat.Products {
		p := &cat.Products[i]
		if seenIDs[p.ID] {
			t.Fatalf("duplicate product ID %d", p.ID)
		}
		seenIDs[p.ID] = true
		if int(p.Category) >= len(cat.Categories) {
			t.Fatalf("product %d category %d out of range", p.ID, p.Category)
		}
		if len(p.ImageURLs) == 0 {
			t.Fatalf("product %d has no images", p.ID)
		}
		totalImages += len(p.ImageURLs)
		for _, url := range p.ImageURLs {
			if _, err := store.Get(url); err != nil {
				t.Fatalf("image %s not uploaded: %v", url, err)
			}
			if !strings.HasPrefix(url, "jfs://") {
				t.Fatalf("unexpected URL scheme: %s", url)
			}
		}
	}
	if store.Len() != totalImages {
		t.Fatalf("store has %d blobs, want %d", store.Len(), totalImages)
	}
}

func TestGenerateWithoutStore(t *testing.T) {
	cat, err := Generate(Config{Products: 10, Seed: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cat.Products) != 10 {
		t.Fatalf("products = %d", len(cat.Products))
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a, err := Generate(Config{Products: 20, Categories: 4, Seed: 7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Config{Products: 20, Categories: 4, Seed: 7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Products {
		pa, pb := a.Products[i], b.Products[i]
		if pa.ID != pb.ID || pa.Category != pb.Category || pa.Sales != pb.Sales {
			t.Fatalf("product %d differs across same-seed runs", i)
		}
		for d := range pa.Latent {
			if pa.Latent[d] != pb.Latent[d] {
				t.Fatalf("product %d latent differs", i)
			}
		}
	}
}

// TestCategoryStructure: products are closer to their own category
// prototype than to other categories' prototypes, on average.
func TestCategoryStructure(t *testing.T) {
	cat, err := Generate(Config{Products: 200, Categories: 6, Seed: 3, CategorySpread: 0.3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := range cat.Products {
		p := &cat.Products[i]
		best, bestD := -1, float32(0)
		for c := range cat.Categories {
			d := vecmath.L2Squared(p.Latent, cat.Categories[c].Prototype)
			if best == -1 || d < bestD {
				best, bestD = c, d
			}
		}
		if best == int(p.Category) {
			correct++
		}
	}
	if frac := float64(correct) / float64(len(cat.Products)); frac < 0.9 {
		t.Fatalf("category purity %.2f, want >= 0.9", frac)
	}
}

func TestImagesShareProductLatent(t *testing.T) {
	store := imagestoretest.New(t)
	cat, err := Generate(Config{Products: 10, Seed: 4, ImageNoise: 0.05}, store)
	if err != nil {
		t.Fatal(err)
	}
	p := &cat.Products[0]
	for _, url := range p.ImageURLs {
		blob, err := store.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		im, err := imaging.Decode(blob)
		if err != nil {
			t.Fatal(err)
		}
		if d := vecmath.L2Squared(im.Latent[:], p.Latent); d > 1.0 {
			t.Fatalf("image %s latent too far from product: %v", url, d)
		}
		if im.Category != p.Category {
			t.Fatalf("image category %d, product %d", im.Category, p.Category)
		}
	}
}

func TestQueryImageNearProduct(t *testing.T) {
	cat, err := Generate(Config{Products: 5, Seed: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := &cat.Products[2]
	q := cat.QueryImage(p)
	if d := vecmath.L2Squared(q.Latent[:], p.Latent); d > 2.0 {
		t.Fatalf("query image too far from product: %v", d)
	}
}

func TestNewProductMintsDistinct(t *testing.T) {
	cat, err := Generate(Config{Products: 5, Seed: 6}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := cat.NewProduct(10_000)
	if err != nil {
		t.Fatal(err)
	}
	if p.ID != 10_000 {
		t.Fatalf("ID = %d", p.ID)
	}
	if len(p.ImageURLs) == 0 {
		t.Fatal("new product has no images")
	}
}

func TestImageURLScheme(t *testing.T) {
	u := ImageURL(77, 2)
	if u != "jfs://img.jd.local/p77/img2.jpg" {
		t.Fatalf("ImageURL = %q", u)
	}
}

func TestCategoryName(t *testing.T) {
	cat, err := Generate(Config{Products: 1, Categories: 3, Seed: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cat.CategoryName(0) == "" {
		t.Fatal("empty category name")
	}
	if got := cat.CategoryName(250); got != "category-250" {
		t.Fatalf("out-of-range name = %q", got)
	}
}

func TestAttrsForURL(t *testing.T) {
	cat, err := Generate(Config{Products: 3, Seed: 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := &cat.Products[0]
	a := p.Attrs(p.ImageURLs[0])
	if a.ProductID != p.ID || a.URL != p.ImageURLs[0] || a.Category != p.Category {
		t.Fatalf("Attrs = %+v", a)
	}
}
