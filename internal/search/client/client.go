// Package client is the caller-side API against a running cluster: dial
// the front end, send an image (or pre-extracted features), get ranked
// products back. It is what the workload generator, the examples and the
// public facade use.
package client

import (
	"context"
	"fmt"

	"jdvs/internal/core"
	"jdvs/internal/rpc"
	"jdvs/internal/search"
)

// Client talks to one frontend (or directly to a blender — the protocol is
// identical).
type Client struct {
	pool *rpc.Pool
}

// Dial connects n pooled connections to addr (n<=0 defaults to 2).
func Dial(addr string, n int) (*Client, error) {
	if n <= 0 {
		n = 2
	}
	pool, err := rpc.DialPool(addr, n)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	return &Client{pool: pool}, nil
}

// Close releases the connections.
func (c *Client) Close() { c.pool.Close() }

// Query sends a raw query image and returns ranked product hits.
func (c *Client) Query(ctx context.Context, q *core.QueryRequest) (*core.SearchResponse, error) {
	raw, err := c.pool.Call(ctx, search.MethodQuery, core.EncodeQueryRequest(q))
	if err != nil {
		return nil, err
	}
	return core.DecodeSearchResponse(raw)
}

// SearchFeature sends an already-extracted feature vector (bypassing the
// blender's CNN). No binary calls it; it is kept because tests and the
// benchmark (bench/quality.go, bench/trace.go) do.
func (c *Client) SearchFeature(ctx context.Context, req *core.SearchRequest) (*core.SearchResponse, error) {
	raw, err := c.pool.Call(ctx, search.MethodSearch, core.EncodeSearchRequest(req))
	if err != nil {
		return nil, err
	}
	return core.DecodeSearchResponse(raw)
}

// Ping probes liveness. No binary calls it; it is kept because tests and
// the benchmark's per-layer harness (bench/layers.go) do.
func (c *Client) Ping(ctx context.Context) error {
	_, err := c.pool.Call(ctx, search.MethodPing, nil)
	return err
}
