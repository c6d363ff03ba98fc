// Package jdvs is a from-scratch Go implementation of the real-time visual
// search system described in "The Design and Implementation of a Real Time
// Visual Search System on JD E-commerce Platform" (Li et al., MIDDLEWARE
// 2018).
//
// The system answers "find products that look like this photo" over a
// continuously changing e-commerce catalog. Its two halves mirror the
// paper's Fig. 1:
//
//   - Indexing: periodic full indexing rebuilds every partition from the
//     day's update log, while real-time indexing applies each product
//     addition, deletion and attribute change to the live index within
//     milliseconds — lock-free with respect to concurrent searches.
//   - Search: a three-level Blender → Broker → Searcher hierarchy fans a
//     query's CNN features out to every index partition, merges the
//     nearest images, and ranks the resulting products by sales, praise
//     and price. Inside each partition the probed inverted lists are
//     additionally striped across a pool of scan goroutines (§2.4
//     multi-thread searching) — Config.SearchWorkers sets the width,
//     defaulting to a GOMAXPROCS-derived value; 1 restores the serial
//     scan. With Config.PQSubvectors set, shards scan product-quantized
//     codes (internal/pq): candidates cost M table lookups instead of a
//     Dim×4-byte feature-row read, and the over-fetched top RerankK are
//     re-ranked exactly before the final top-k — several times the scan
//     throughput at recall@10 ≳ 0.97.
//
// Quick start (an in-process cluster over a synthetic catalog):
//
//	cl, err := jdvs.Start(jdvs.Config{Partitions: 4, SearchWorkers: 4})
//	if err != nil { ... }
//	defer cl.Close()
//
//	c, err := cl.Client()
//	if err != nil { ... }
//	defer c.Close()
//
//	photo := cl.Catalog.QueryImage(&cl.Catalog.Products[0])
//	resp, err := c.Query(ctx, jdvs.NewQuery(photo.Encode(), 6))
//
// Everything — the IVF index, the message queue, the feature store, the
// RPC fabric, the simulated CNN — is built on the standard library alone.
package jdvs

import (
	"jdvs/internal/catalog"
	"jdvs/internal/cluster"
	"jdvs/internal/core"
	"jdvs/internal/imaging"
	"jdvs/internal/search/client"
)

// Config sizes a cluster: partitions, replicas, brokers, blenders, index
// shape and the synthetic catalog. See cluster.Config for field docs.
type Config = cluster.Config

// Cluster is a running topology (searchers, brokers, blenders, frontend,
// message queue, feature DB, image store).
type Cluster = cluster.Cluster

// Client issues queries against a cluster's frontend.
type Client = client.Client

// CatalogConfig configures the synthetic product corpus.
type CatalogConfig = catalog.Config

// Catalog is the generated corpus (categories, products, images).
type Catalog = catalog.Catalog

// Product is one synthetic product.
type Product = catalog.Product

// Image is a decoded synthetic product image.
type Image = imaging.Image

// QueryRequest is an image query: blob plus retrieval parameters.
type QueryRequest = core.QueryRequest

// SearchResponse is a ranked result set.
type SearchResponse = core.SearchResponse

// Hit is one ranked result.
type Hit = core.Hit

// AllCategories disables category scoping in a QueryRequest.
const AllCategories = core.AllCategories

// Start boots a cluster: generates the catalog, runs full indexing, and
// brings up every tier on loopback TCP. Callers must Close it.
func Start(cfg Config) (*Cluster, error) { return cluster.Start(cfg) }

// Dial connects a client to a frontend address with n pooled connections.
func Dial(addr string, n int) (*Client, error) { return client.Dial(addr, n) }

// NewQuery builds a query for the top k products similar to the encoded
// image, searching all categories.
func NewQuery(imageBlob []byte, k int) *QueryRequest {
	return &QueryRequest{ImageBlob: imageBlob, TopK: k, CategoryScope: AllCategories}
}

// NewScopedQuery builds a query that lets the blender detect the item,
// identify its category, and restrict the search to it (§2.4).
func NewScopedQuery(imageBlob []byte, k int) *QueryRequest {
	return &QueryRequest{ImageBlob: imageBlob, TopK: k, AutoCategory: true}
}
