package experiments

import (
	"context"
	"fmt"
	"time"

	"jdvs/internal/cluster"
	"jdvs/internal/workload"
)

// ab is one A/B comparison: two clusters built from the same seed, each
// driven by the same closed-loop load over the same query pool; side 1
// gets treat applied to its cluster and treatLoad to its load.
type ab struct {
	title   string
	sides   [2]string
	columns []string // label column first, then Point.cell names

	categories int
	base       cluster.Config
	treat      func(*cluster.Config)

	pool      int                      // distinct query images
	load      workload.QueryLoadConfig // skew and probe width only; runSide sets the rest
	treatLoad func(lc *workload.QueryLoadConfig, blobCategories []int32)
	// notes writes the closing lines from rep.Points (one per side).
	notes func(rep *Report)
}

// abRunner adapts an A/B table entry to Experiment.run: the one side loop.
func abRunner(spec func(Scale) ab) func(Scale) (*Report, error) {
	return func(sc Scale) (*Report, error) {
		e := spec(sc)
		rep := &Report{Title: e.title, Stats: map[string]int64{}}
		for side := range e.sides {
			if err := e.runSide(sc, side, rep); err != nil {
				return nil, err
			}
		}
		rep.Tables = []Table{pointTable("", e.columns, rep.Points)}
		e.notes(rep)
		return rep, nil
	}
}

func (e *ab) runSide(sc Scale, side int, rep *Report) error {
	label, cfg, lc := e.sides[side], e.base, e.load
	if side == 1 && e.treat != nil {
		e.treat(&cfg)
	}
	c, err := start(sc, e.categories, cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", label, err)
	}
	defer c.Close()

	blobs, cats := workload.MakeScopedQueryBlobs(c.Catalog, e.pool, sc.Seed)
	lc.Blobs, lc.Concurrency, lc.Duration, lc.Seed = blobs, sc.Threads, sc.Duration, sc.Seed
	if side == 1 && e.treatLoad != nil {
		e.treatLoad(&lc, cats)
	}
	p, err := measure(c, label, lc)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	st, err := c.Stats(ctx)
	if err != nil {
		return fmt.Errorf("%s stats: %w", label, err)
	}
	p.Counters = tierCounters(st)
	rep.Points = append(rep.Points, p)
	return nil
}

// tierCounters sums the blender and broker counters the A/B notes quote.
func tierCounters(st *cluster.Stats) map[string]int64 {
	k := map[string]int64{}
	for _, bl := range st.Blenders {
		k["feature_hits"] += bl.FeatureCacheHits
		k["feature_misses"] += bl.FeatureCacheMisses
	}
	for _, br := range st.Brokers {
		k["broker_queries"] += br.Queries
		k["hedges"] += br.Hedges
		k["hedge_wins"] += br.HedgeWins
		k["hedge_cancels"] += br.HedgeCancels
		k["result_hits"] += br.ResultCacheHits
		k["result_misses"] += br.ResultCacheMisses
	}
	return k
}

// noteSpeedup closes a report with the closed-loop QPS ratio side 1 / side 0.
func noteSpeedup(rep *Report) {
	x := 0.0
	if base := rep.Points[0].QPS; base > 0 {
		x = rep.Points[1].QPS / base
	}
	rep.notef("closed-loop speedup: %.2fx", x)
}

// hedge: the last replica of every partition sleeps slowDelay on slowFrac
// of its searches; the brokers run with hedging disabled, then enabled.
func hedge(Scale) ab {
	const (
		slowDelay = 200 * time.Millisecond
		slowFrac  = 0.2
		// The injected slow mode is deliberately heavy (~10% of attempts
		// per group under round-robin), so trigger below the slow mass
		// instead of at the production-default p95, which such a fixture
		// would push into the slow mode itself.
		quantile = 85
	)
	return ab{
		title: fmt.Sprintf("Hedged replica requests vs. a slow replica (+%s on %.0f%% of one replica's requests)",
			fmtDur(slowDelay), 100*slowFrac),
		sides:      [2]string{"no hedging", fmt.Sprintf("hedge@p%d", quantile)},
		columns:    []string{"mode", "QPS", "mean", "p50", "p95", "p99", "max", "errors"},
		categories: 8,
		base: cluster.Config{
			Replicas: 2, Brokers: 2, Blenders: 2, NLists: 32,
			SlowReplicaDelay: slowDelay, SlowReplicaFraction: slowFrac,
			HedgeQuantile: -1, HedgeMaxFraction: 0.25, HedgeWarmup: 16,
		},
		treat: func(c *cluster.Config) { c.HedgeQuantile = quantile },
		pool:  64,
		notes: func(rep *Report) {
			plain, hedged := rep.Points[0], rep.Points[1]
			k := hedged.Counters
			rep.notef("hedges: %d over %d broker queries (%s of volume), win rate %s, %d losers cancelled",
				k["hedges"], k["broker_queries"], pct(k["hedges"], k["broker_queries"]),
				pct(k["hedge_wins"], k["hedges"]), k["hedge_cancels"])
			rep.notef("p99 with hedging = %s of p99 without", pct(int64(hedged.P99), int64(plain.P99)))
		},
	}
}

// filtered: side 1 scopes every query to its product's category (plus an
// always-true price floor, so the predicate machinery is exercised too)
// over a catalog of 100 categories; the searchers' bitmap admission,
// which answers a query this selective by scoring every admitted row
// exactly, is what keeps the scoped page full.
func filtered(sc Scale) ab {
	// A scoped query admits ≈1/categories of the corpus: the 1% band the
	// recall gate is pinned at (TestFilteredRecallGuardrail).
	const categories = 100
	return ab{
		title: fmt.Sprintf("Filtered search workload (selectivity %.2g ⇒ %d categories, %d products)",
			1.0/categories, categories, sc.Products),
		sides:      [2]string{"unscoped", "scoped"},
		columns:    []string{"side", "QPS", "mean", "p99", "queries", "errors", "full-page"},
		categories: categories,
		base:       cluster.Config{Brokers: 2, Blenders: 2, NLists: 64},
		pool:       64,
		treatLoad: func(lc *workload.QueryLoadConfig, blobCategories []int32) {
			lc.BlobCategories = blobCategories
			lc.MinPriceCents = 1
		},
		notes: func(rep *Report) {
			rep.notef("scoped queries admit only their product's category; bitmap admission and")
			rep.notef("exact scoring of the admitted rows keep the scoped full-page rate near 1.")
		},
	}
}

// cached: one zipf-skewed query stream against caches off, then the
// blender feature cache plus the broker result cache on. Both levels hold
// half the pool, so the tail of the distribution does not fit and LRU
// churn is part of the measurement; extraction is made expensive
// (ExtractWork) because that is the cost the feature cache elides.
func cached(sc Scale) ab {
	const zipfS = 1.1
	size := sc.QueryPool / 2
	return ab{
		title: fmt.Sprintf("Two-level caching under zipf-skewed queries (s=%.2f, pool %d, feature cache %d, result cache %d)",
			zipfS, sc.QueryPool, size, size),
		sides:      [2]string{"uncached", "cached"},
		columns:    []string{"mode", "QPS", "mean", "p50", "p99", "queries", "errors"},
		categories: 8,
		base:       cluster.Config{Brokers: 1, Blenders: 1, NLists: 32, ExtractWork: 256},
		treat: func(c *cluster.Config) {
			c.FeatureCacheSize, c.ResultCacheSize = size, size
		},
		pool: sc.QueryPool,
		load: workload.QueryLoadConfig{ZipfS: zipfS},
		notes: func(rep *Report) {
			k := rep.Points[1].Counters
			if n := k["feature_hits"] + k["feature_misses"]; n > 0 {
				rep.notef("feature cache: %s hit rate (%d hits / %d lookups)", pct(k["feature_hits"], n), k["feature_hits"], n)
			}
			if n := k["result_hits"] + k["result_misses"]; n > 0 {
				rep.notef("result cache:  %s hit rate (%d hits / %d lookups)", pct(k["result_hits"], n), k["result_hits"], n)
			}
			noteSpeedup(rep)
		},
	}
}
