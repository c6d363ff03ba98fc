package experiments

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"jdvs/internal/cluster"
	"jdvs/internal/metrics"
	"jdvs/internal/msg"
	"jdvs/internal/workload"
)

// updateStream publishes the Table 1 update mix as per-image events — the
// unit the paper counts — into a cluster's queue: the one update
// publisher. Not safe for concurrent use.
type updateStream struct {
	c    *cluster.Cluster
	gen  *workload.MixGen
	cur  *msg.ProductUpdate // product event being split into images
	next int                // next image of cur
}

func newUpdateStream(c *cluster.Cluster, seed int64) *updateStream {
	return &updateStream{c: c, gen: workload.NewMix(workload.MixConfig{Seed: seed}, c.Catalog, c.Images)}
}

func wallClock() int64 { return time.Now().UnixNano() }

// publish sends the next n per-image events, each stamped by eventTime.
func (s *updateStream) publish(n int, eventTime func() int64) error {
	for ; n > 0; n-- {
		for s.cur == nil || s.next == len(s.cur.ImageURLs) {
			u, _, _, err := s.gen.Next()
			if err != nil {
				return fmt.Errorf("generate update: %w", err)
			}
			s.cur, s.next = u, 0
		}
		per := *s.cur
		per.ImageURLs = s.cur.ImageURLs[s.next : s.next+1]
		per.EventTimeNanos = eventTime()
		s.next++
		if err := s.c.Publish(&per); err != nil {
			return fmt.Errorf("publish update: %w", err)
		}
	}
	return nil
}

// run publishes about rate events/sec until stop closes.
func (s *updateStream) run(rate int, stop <-chan struct{}) error {
	ticker := time.NewTicker(10 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return nil
		case <-ticker.C:
		}
		if err := s.publish(rate/100, wallClock); err != nil {
			return err
		}
	}
}

// drain waits until the searchers have consumed everything published.
func drain(c *cluster.Cluster) error {
	if !c.WaitForDrain(10 * time.Minute) {
		return errors.New("real-time indexing did not drain within 10m")
	}
	return nil
}

// runTable1 streams sc.Events updates with the paper's proportions (977M
// on its day: 315M attribute updates, 521M additions of which 513M reused
// features, 141M deletions) through the live real-time indexing path and
// counts what the searchers actually applied.
func runTable1(sc Scale) (*Report, error) {
	var mu sync.Mutex
	stats := map[string]int64{}
	c, err := start(sc, 12, cluster.Config{
		NLists: 32,
		OnApplied: func(u *msg.ProductUpdate, kind string, reused bool, lat time.Duration) {
			mu.Lock()
			stats["total"]++
			stats[kind]++
			if reused && kind == string(workload.KindAddition) {
				stats["reused_additions"]++
			}
			mu.Unlock()
		},
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()

	extractionsBefore := c.Extractor.Calls()
	began := time.Now()
	if err := newUpdateStream(c, sc.Seed+1).publish(sc.Events, wallClock); err != nil {
		return nil, err
	}
	if err := drain(c); err != nil {
		return nil, err
	}
	wall := time.Since(began)
	stats["fresh_extractions"] = c.Extractor.Calls() - extractionsBefore

	total, adds := stats["total"], stats[string(workload.KindAddition)]
	scale := int64(workload.Table1Total) * 1_000_000
	if total > 0 {
		scale /= total
	}
	rep := &Report{
		Title: fmt.Sprintf("Table 1. Number of Image Updates (scaled 1:%d)", scale),
		Stats: stats,
	}
	rep.Tables = []Table{{
		Header: []string{"", "Total", "AttrUpdate", "ImageAddition", "ImageDeletion"},
		Rows: [][]string{
			{"paper (M)", itoa(workload.Table1Total), itoa(workload.Table1AttrUpdates), itoa(workload.Table1Additions), itoa(workload.Table1Deletions)},
			{"measured", itoa(total), itoa(stats[string(workload.KindAttrUpdate)]), itoa(adds), itoa(stats[string(workload.KindDeletion)])},
		},
	}}
	rep.notef("additions reusing stored features: %d / %d (%s; paper: 513/521 = 98.5%%)",
		stats["reused_additions"], adds, pct(stats["reused_additions"], adds))
	rep.notef("fresh CNN extractions performed:   %d", stats["fresh_extractions"])
	rep.notef("wall time %s, sustained %.0f updates/sec", fmtDur(wall), float64(total)/wall.Seconds())
	return rep, nil
}

// runFig11 plays a simulated 24-hour day of sc.Events updates whose hourly
// rates follow the paper's diurnal curve (peak at 11:00) in sc.Duration of
// real time. Each hour's events are published as a burst at the start of
// its slice, so busy hours accumulate backlog and end-to-end latency
// (enqueue → applied) rises with load, as in Fig. 11(b). Fresh additions
// cost ~1ms of simulated CNN work, which is what makes bursts queue.
func runFig11(sc Scale) (*Report, error) {
	series := metrics.NewHourlySeries()
	var overall metrics.Histogram
	c, err := start(sc, 12, cluster.Config{
		NLists:      32,
		ExtractWork: 300,
		// The producer stamps each event with its simulated hour (hour ×
		// 1e9) in place of an event time.
		OnApplied: func(u *msg.ProductUpdate, kind string, reused bool, lat time.Duration) {
			series.RecordUpdate(int(u.EventTimeNanos/1e9), kind, lat)
			overall.Record(lat)
		},
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()

	stream := newUpdateStream(c, sc.Seed+1)
	slice := sc.Duration / 24
	sent := 0
	for h := 0; h < 24; h++ {
		hourStart := time.Now()
		n := 0
		for sent+n < sc.Events && workload.HourOfEvent(sent+n, sc.Events, workload.DiurnalShape) == h {
			n++
		}
		if err := stream.publish(n, func() int64 { return int64(h) * 1e9 }); err != nil {
			return nil, err
		}
		sent += n
		if rest := slice - time.Since(hourStart); rest > 0 && h < 23 {
			time.Sleep(rest)
		}
	}
	if err := drain(c); err != nil {
		return nil, err
	}

	rep := &Report{
		Title: fmt.Sprintf("Figure 11. Real time indexing over a simulated day (%d events in %s)", sc.Events, fmtDur(sc.Duration)),
		Stats: map[string]int64{},
	}
	hourly := Table{Header: []string{"hour", "updates", "additions", "deletions", "total", "avg", "p90", "p99"}}
	peakN := int64(-1)
	for h := 0; h < 24; h++ {
		k, lat := &series.Kinds[h], &series.Lat[h]
		if k.Total() > peakN {
			rep.Stats["peak_hour"], peakN = int64(h), k.Total()
		}
		hourly.Rows = append(hourly.Rows, []string{
			fmt.Sprintf("%02d:00", h),
			itoa(k.Updates.Value()), itoa(k.Additions.Value()), itoa(k.Deletions.Value()), itoa(k.Total()),
			fmtDur(lat.Mean()), fmtDur(lat.Percentile(90)), fmtDur(lat.Percentile(99)),
		})
	}
	rep.Tables = []Table{hourly}
	rep.notef("peak hour: %02d:00 (paper: 11:00)", rep.Stats["peak_hour"])
	rep.notef("day-wide latency: avg %s, p90 %s, p99 %s", fmtDur(overall.Mean()), fmtDur(overall.Percentile(90)), fmtDur(overall.Percentile(99)))
	rep.notef("(paper, production scale: avg 132ms, p90 223ms, p99 816ms)")
	return rep, nil
}
