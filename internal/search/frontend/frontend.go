// Package frontend implements the front end of Fig. 1 — the load balancer
// (Nginx in the production deployment) that "forwards the query to one of
// the blenders". It spreads queries round-robin across blender instances
// and retries the next blender when one fails, providing the tier's load
// balancing and fault tolerance.
package frontend

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"

	"jdvs/internal/metrics"
	"jdvs/internal/rpc"
	"jdvs/internal/search"
)

// Config assembles a frontend.
type Config struct {
	// Blenders lists every blender's address. Required.
	Blenders []string
	// Addr is the listen address (":0" for ephemeral).
	Addr string
}

// connsPerBlender sizes each blender connection pool.
const connsPerBlender = 2

// Frontend is a running front-end node.
type Frontend struct {
	srv   *rpc.Server
	pools []*rpc.Pool
	next  atomic.Uint64
	addr  string

	queries  metrics.Counter
	retries  metrics.Counter
	failures metrics.Counter
}

// New connects to all blenders and starts serving.
func New(cfg Config) (*Frontend, error) {
	if len(cfg.Blenders) == 0 {
		return nil, errors.New("frontend: no blenders configured")
	}
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	f := &Frontend{}
	for _, addr := range cfg.Blenders {
		pool, err := rpc.DialPool(addr, connsPerBlender)
		if err != nil {
			f.closePools()
			return nil, fmt.Errorf("frontend: dial blender %s: %w", addr, err)
		}
		f.pools = append(f.pools, pool)
	}
	f.srv = rpc.NewServer()
	f.srv.Handle(search.MethodQuery, f.proxy(search.MethodQuery))
	f.srv.Handle(search.MethodSearch, f.proxy(search.MethodSearch))
	f.srv.Handle(search.MethodStats, f.handleStats)
	f.srv.Handle(search.MethodPing, func([]byte) ([]byte, error) { return nil, nil })
	addr, err := f.srv.Listen(cfg.Addr)
	if err != nil {
		f.closePools()
		return nil, err
	}
	f.addr = addr
	return f, nil
}

// Addr returns the frontend's address — the single endpoint clients see.
func (f *Frontend) Addr() string { return f.addr }

// Close stops serving and closes blender connections.
func (f *Frontend) Close() {
	f.srv.Close()
	f.closePools()
}

func (f *Frontend) closePools() {
	for _, p := range f.pools {
		if p != nil {
			p.Close()
		}
	}
}

// proxy forwards a method to one blender, retrying the others on failure.
func (f *Frontend) proxy(method uint16) rpc.Handler {
	return func(payload []byte) ([]byte, error) {
		f.queries.Inc()
		ctx := context.Background()
		n := len(f.pools)
		// The modulo is computed in uint64: converting the cursor to int
		// first would go negative once it passes the int range and panic
		// the index expression.
		start := f.next.Add(1)
		var lastErr error
		for i := 0; i < n; i++ {
			pool := f.pools[(start+uint64(i))%uint64(n)]
			resp, err := pool.Call(ctx, method, payload)
			if err == nil {
				return resp, nil
			}
			// A RemoteError means the blender is alive but rejected the
			// request (bad query); retrying elsewhere cannot help.
			var re *rpc.RemoteError
			if errors.As(err, &re) {
				return nil, err
			}
			lastErr = err
			f.retries.Inc()
		}
		f.failures.Inc()
		return nil, fmt.Errorf("frontend: all blenders failed: %w", lastErr)
	}
}

// Stats is the frontend's stats payload.
type Stats struct {
	Blenders int   `json:"blenders"`
	Queries  int64 `json:"queries"`
	Retries  int64 `json:"retries"`
	Failures int64 `json:"failures"`
}

func (f *Frontend) handleStats([]byte) ([]byte, error) {
	return json.Marshal(Stats{
		Blenders: len(f.pools),
		Queries:  f.queries.Value(),
		Retries:  f.retries.Value(),
		Failures: f.failures.Value(),
	})
}
