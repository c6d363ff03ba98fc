package experiments

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// Every registered experiment runs at miniature scale through the same
// Run: the point is that the pipelines work end to end, each experiment's
// structural invariant holds, and the render carries the documented
// columns. cmd/jdvs-bench runs them at full scale.
func TestRegistrySmallScale(t *testing.T) {
	ms := time.Millisecond
	cases := map[string]struct {
		scale   Scale
		headers []string // must appear in the render
		check   func(t *testing.T, sc Scale, rep *Report)
	}{
		"table1": {
			scale:   Scale{Products: 400, Partitions: 2, Events: 3_000, Seed: 5},
			headers: []string{"Table 1", "Total", "AttrUpdate", "ImageAddition", "ImageDeletion", "reusing stored features"},
			check: func(t *testing.T, sc Scale, rep *Report) {
				s := rep.Stats
				if s["total"] != int64(sc.Events) || s["update"]+s["addition"]+s["deletion"] != s["total"] {
					t.Fatalf("counts don't add up to %d events: %v", sc.Events, s)
				}
				// Table 1's 315:521:141, within a generous tolerance.
				for kind, want := range map[string]float64{"update": 315.0 / 977, "addition": 521.0 / 977, "deletion": 141.0 / 977} {
					if got := float64(s[kind]) / float64(s["total"]); got < want-0.08 || got > want+0.08 {
						t.Errorf("%s share %.3f, want %.3f ± 0.08", kind, got, want)
					}
				}
				// The reuse ratio is the headline claim.
				if reuse := float64(s["reused_additions"]) / float64(s["addition"]); reuse < 0.9 {
					t.Errorf("reuse ratio %.3f, want >= 0.9 (paper: 0.985)", reuse)
				}
				if s["fresh_extractions"] == 0 {
					t.Error("no fresh extractions — the mix lost its fresh-add component")
				}
			},
		},
		"fig11": {
			scale:   Scale{Products: 400, Partitions: 2, Events: 4_000, Duration: 1200 * ms, Seed: 6},
			headers: []string{"Figure 11", "hour", "updates", "additions", "deletions", "total", "avg", "p90", "p99", "peak hour", "11:00"},
			check: func(t *testing.T, sc Scale, rep *Report) {
				rows := rep.Tables[0].Rows
				if len(rows) != 24 {
					t.Fatalf("%d hourly buckets, want 24", len(rows))
				}
				if total := sumColumn(t, rows, 4); total != float64(sc.Events) {
					t.Fatalf("hourly totals sum to %v, want %d", total, sc.Events)
				}
				// Small samples wobble between 10:00 and 12:00.
				if h := rep.Stats["peak_hour"]; h < 9 || h > 13 {
					t.Errorf("peak hour %d, want late morning (paper: 11)", h)
				}
			},
		},
		"fig12": {
			scale:   Scale{Products: 300, Partitions: 2, Duration: 400 * ms, Threads: 8, Seed: 7},
			headers: []string{"Figure 12", "QPS w/o RT", "QPS with RT", "normalised", "overhead", "Response time", "mean with RT", "p99 with RT"},
			check: func(t *testing.T, sc Scale, rep *Report) {
				if len(rep.Points) != 6 {
					t.Fatalf("%d points, want 3 thread counts × 2 modes", len(rep.Points))
				}
				for i := 0; i < len(rep.Points); i += 2 {
					wo, wi := rep.Points[i], rep.Points[i+1]
					if wo.Label != "without" || wi.Label != "with" || wo.Threads != wi.Threads || wo.QPS <= 0 || wi.QPS <= 0 {
						t.Fatalf("points %d/%d not a measured pair: %+v %+v", i, i+1, wo, wi)
					}
				}
				if rep.Stats["applied_during_run"] == 0 {
					t.Fatal("no real-time updates applied during the 'with' passes — the comparison is void")
				}
			},
		},
		"fig13": {
			scale:   Scale{Products: 300, Partitions: 2, Duration: 400 * ms, Threads: 4, Seed: 8},
			headers: []string{"Figure 13", "threads", "QPS", "mean", "p99", "errors", "saturation", "latency", "CDF"},
			check: func(t *testing.T, sc Scale, rep *Report) {
				if len(rep.Points) != 2 { // 1 and 3 threads
					t.Fatalf("sweep has %d points", len(rep.Points))
				}
				cdf := rep.Tables[1].Rows
				prev := 0.0
				for _, row := range cdf {
					f, err := strconv.ParseFloat(row[1], 64)
					if err != nil || f < prev {
						t.Fatalf("CDF not monotone at %v (after %v): %v", row, prev, err)
					}
					prev = f
				}
				if len(cdf) == 0 || prev != 1 {
					t.Fatalf("CDF of %d points ends at %v, want 1", len(cdf), prev)
				}
			},
		},
		"hedge": {
			scale:   Scale{Products: 300, Partitions: 2, Duration: 1500 * ms, Threads: 2, Seed: 5},
			headers: []string{"mode", "QPS", "mean", "p50", "p95", "p99", "max", "errors", "no hedging", "hedge@p85", "win rate"},
			check: func(t *testing.T, sc Scale, rep *Report) {
				plain, hedged := rep.Points[0], rep.Points[1]
				if plain.Counters["hedges"] != 0 {
					t.Fatalf("plain side hedged %d times with hedging disabled", plain.Counters["hedges"])
				}
				if hedged.Counters["hedges"] == 0 || hedged.Counters["hedge_wins"] == 0 {
					t.Fatalf("hedged side never hedged or never won: %v", hedged.Counters)
				}
				// The injected 200ms mode must dominate the plain tail; the
				// hedged side's extreme percentiles still hold its own
				// pre-warm-up stragglers, so the robust signal is the mean.
				if plain.P99 < 150*ms {
					t.Fatalf("plain p99 %v does not show the injected slow mode", plain.P99)
				}
				if hedged.Mean >= plain.Mean*3/4 {
					t.Fatalf("hedging did not improve mean latency: plain %v, hedged %v", plain.Mean, hedged.Mean)
				}
			},
		},
		"filtered": {
			// 2,000 products × ~2 images over 100 categories leave ~40
			// images per category: the exact plan can always fill a page of 10.
			scale:   Scale{Products: 2_000, Partitions: 2, Duration: 400 * ms, Threads: 2, Seed: 12},
			headers: []string{"Filtered search", "side", "QPS", "mean", "p99", "queries", "errors", "full-page", "unscoped", "scoped"},
			check: func(t *testing.T, sc Scale, rep *Report) {
				if got := rep.Points[1].FullPage; got < 0.99 {
					t.Fatalf("scoped full-page rate %.3f (unscoped %.3f), want ≈ 1", got, rep.Points[0].FullPage)
				}
			},
		},
		"cached": {
			scale:   Scale{Products: 300, Partitions: 2, Duration: 400 * ms, Threads: 4, QueryPool: 32, Seed: 3},
			headers: []string{"Two-level caching", "mode", "QPS", "mean", "p50", "p99", "queries", "errors", "uncached", "feature cache:", "result cache:", "speedup"},
			check: func(t *testing.T, sc Scale, rep *Report) {
				off, on := rep.Points[0].Counters, rep.Points[1].Counters
				if off["feature_hits"]+off["result_hits"] != 0 {
					t.Fatalf("uncached side hit a cache: %v", off)
				}
				if on["feature_hits"] == 0 || on["result_hits"] == 0 {
					t.Fatalf("cached side never hit: %v", on)
				}
			},
		},
		"batched": {
			scale:   Scale{Products: 300, Duration: 400 * ms, Threads: 4, QueryPool: 32, Seed: 9},
			headers: []string{"Batched query execution", "mode", "QPS", "mean", "p50", "p99", "queries", "errors", "unbatched", "replayed, 0 mismatched", "speedup"},
			check: func(t *testing.T, sc Scale, rep *Report) {
				// The equality audit is the experiment's correctness half:
				// both sides must answer every pool query identically.
				if rep.Stats["replayed"] != int64(sc.QueryPool) || rep.Stats["mismatched"] != 0 {
					t.Fatalf("audit over the whole pool of %d: %v", sc.QueryPool, rep.Stats)
				}
			},
		},
	}
	for _, e := range All() {
		tc, ok := cases[e.Name]
		if !ok {
			t.Errorf("registered experiment %q has no test case", e.Name)
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			rep, err := e.Run(tc.scale)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range rep.Points {
				if p.Errors != 0 || p.QPS <= 0 {
					t.Errorf("load point %q at %d threads: %d errors, %.0f QPS", p.Label, p.Threads, p.Errors, p.QPS)
				}
			}
			out := rep.Render()
			for _, want := range tc.headers {
				if !strings.Contains(out, want) {
					t.Errorf("render missing %q:\n%s", want, out)
				}
			}
			tc.check(t, tc.scale.or(e.defaults), rep)
		})
	}
	if len(cases) != len(All()) {
		t.Errorf("%d test cases for %d registered experiments", len(cases), len(All()))
	}
}

func sumColumn(t *testing.T, rows [][]string, col int) float64 {
	t.Helper()
	sum := 0.0
	for _, row := range rows {
		v, err := strconv.ParseFloat(row[col], 64)
		if err != nil {
			t.Fatalf("row %v column %d: %v", row, col, err)
		}
		sum += v
	}
	return sum
}
