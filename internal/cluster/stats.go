package cluster

import (
	"context"
	"encoding/json"
	"fmt"

	"jdvs/internal/rpc"
	"jdvs/internal/search"
	"jdvs/internal/search/blender"
	"jdvs/internal/search/broker"
	"jdvs/internal/search/frontend"
	"jdvs/internal/search/searcher"
)

// Stats aggregates every tier's counters, fetched over the same RPC
// endpoints production monitoring would scrape.
type Stats struct {
	Searchers []searcher.Stats `json:"searchers"`
	Brokers   []broker.Stats   `json:"brokers"`
	Blenders  []blender.Stats  `json:"blenders"`
	Frontend  frontend.Stats   `json:"frontend"`
}

// fetchStats calls MethodStats on addr and decodes into out.
func fetchStats(ctx context.Context, addr string, out interface{}) error {
	c, err := rpc.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	raw, err := c.Call(ctx, search.MethodStats, nil)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, out)
}

// Stats scrapes every tier. Nodes that are down contribute an error — the
// caller decides whether partial stats are acceptable.
func (c *Cluster) Stats(ctx context.Context) (*Stats, error) {
	out := &Stats{}
	for p := 0; p < c.cfg.Partitions; p++ {
		var st searcher.Stats
		if err := fetchStats(ctx, c.searchers[p][0].Addr(), &st); err != nil {
			return nil, fmt.Errorf("cluster: stats from searcher p%d: %w", p, err)
		}
		out.Searchers = append(out.Searchers, st)
	}
	for i, b := range c.brokers {
		var st broker.Stats
		if err := fetchStats(ctx, b.Addr(), &st); err != nil {
			return nil, fmt.Errorf("cluster: stats from broker %d: %w", i, err)
		}
		out.Brokers = append(out.Brokers, st)
	}
	for i, b := range c.blenders {
		var st blender.Stats
		if err := fetchStats(ctx, b.Addr(), &st); err != nil {
			return nil, fmt.Errorf("cluster: stats from blender %d: %w", i, err)
		}
		out.Blenders = append(out.Blenders, st)
	}
	if err := fetchStats(ctx, c.front.Addr(), &out.Frontend); err != nil {
		return nil, fmt.Errorf("cluster: stats from frontend: %w", err)
	}
	return out, nil
}
