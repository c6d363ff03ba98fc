package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"testing"
	"time"

	"jdvs/internal/catalog"
	"jdvs/internal/msg"
	"jdvs/internal/workload"
)

// A stall of the generator must be charged to every request that was due
// during it, and show in the lateness the run reports.
func TestOpenLoopChargesStallToDueRequests(t *testing.T) {
	const stall = 50 * time.Millisecond
	o := &openLoop{
		rate: 1000, n: 300, gens: 1, grace: time.Second,
		issue: func(context.Context, int) bool { return true },
		beforeSend: func(i int) {
			if i == 100 {
				time.Sleep(stall)
			}
		},
	}
	res := o.run(context.Background())
	if res.attempted != 300 || res.failed != 0 {
		t.Fatalf("attempted %d failed %d, want 300 and 0", res.attempted, res.failed)
	}
	if got := time.Duration(res.latNs[100]); got < stall {
		t.Errorf("request 100 was sent after the stall but its latency is %v, want >= %v", got, stall)
	}
	// Request 120 was due 20 ms into the stall and could not go out before
	// the stall ended 30 ms later.
	if got := time.Duration(res.latNs[120]); got < 25*time.Millisecond {
		t.Errorf("request 120 was due during the stall but its latency is %v, want >= 25ms", got)
	}
	if got := time.Duration(res.latNs[50]); got > 20*time.Millisecond {
		t.Errorf("request 50 was due before the stall but its latency is %v", got)
	}
	if got := time.Duration(res.latNs[290]); got > 20*time.Millisecond {
		t.Errorf("request 290 was due long after the stall but its latency is %v", got)
	}
	// 50 of 300 sends were late by up to the stall; the highest percentile
	// 300 samples support is the 95th, which lies among them.
	if late := supported(sortedMs(res.lateNs), 99); late < 20 {
		t.Errorf("reported lateness %.2f ms does not show the %v stall", late, stall)
	}
}

func TestHighestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	sorted := make([]float64, 300)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if got := supported(sorted, 99); got != percentile(sorted, 95) {
		t.Errorf("p99 of 300 samples read %v, want the 95th percentile %v", got, percentile(sorted, 95))
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// requestDigest hashes the pool and the first n picks of every stream: the
// identity of what a seed sends.
func (t *traffic) requestDigest(streams, n int) [32]byte {
	h := sha256.New()
	for _, b := range t.blobs {
		h.Write(b)
	}
	var word [8]byte
	for s := 0; s < streams; s++ {
		p := t.picker(s)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(word[:], uint64(p.next()))
			h.Write(word[:])
		}
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// eventDigest hashes a sequence of update events as they go on the queue.
func eventDigest(events []*msg.ProductUpdate) [32]byte {
	h := sha256.New()
	for _, u := range events {
		h.Write(u.Encode())
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// digests returns the identity of what a seed sends: requests and events.
func digests(t *testing.T, seed int64) (requests, events [32]byte) {
	t.Helper()
	cat, err := catalog.Generate(catalog.Config{Products: 200, Seed: corpusSeed}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := makeTraffic(spec{pool: 32, zipfS: 1.1, scoped: true}, cat, seed)
	requests = tr.requestDigest(3, 200)
	mix := workload.NewMix(workload.MixConfig{Seed: seed}, cat, nil)
	var evs []*msg.ProductUpdate
	for i := 0; i < 500; i++ {
		u, _, _, err := mix.Next()
		if err != nil {
			t.Fatal(err)
		}
		evs = append(evs, u)
	}
	return requests, eventDigest(evs)
}

func TestSameSeedSameInputs(t *testing.T) {
	r1, e1 := digests(t, 1)
	r1b, e1b := digests(t, 1)
	r2, e2 := digests(t, 2)
	if r1 != r1b || e1 != e1b {
		t.Error("the same seed generated different requests or events")
	}
	if r1 == r2 {
		t.Error("seeds 1 and 2 generated the same requests")
	}
	if e1 == e2 {
		t.Error("seeds 1 and 2 generated the same events")
	}
}

func TestSelfTimeIsDurationMinusChild(t *testing.T) {
	dur := map[string][]float64{
		"outer":  {100, 110, 120},
		"middle": {70, 75, 95},
		"inner":  {40, 50, 45},
	}
	self := selfTimes([]string{"outer", "middle", "inner"}, dur)
	// outer-middle = 30, 35, 25; middle-inner = 30, 25, 50; inner = 40, 50, 45.
	want := map[string]float64{"outer": 30, "middle": 30, "inner": 45}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self[%s] = %v, want %v", name, self[name], w)
		}
	}
}

func TestJudge(t *testing.T) {
	tight := func(m float64) [3]float64 { return [3]float64{m * 0.99, m, m * 1.01} }
	wide := func(m float64) [3]float64 { return [3]float64{m * 0.8, m, m * 1.2} }
	share := func(m float64) [3]float64 { return [3]float64{m - 0.001, m, m + 0.001} }
	for _, c := range []struct {
		name         string
		a, b         [3]float64
		higherBetter bool
		absolute     bool
		bound        float64
		verdict      string
		delta        float64
	}{
		{"latency within bound", tight(10), tight(10.5), false, false, 0.1, verdictOK, 0.05},
		{"latency beyond bound", tight(10), tight(11.5), false, false, 0.1, verdictWorse, 0.15},
		{"latency improved", tight(10), tight(5), false, false, 0.1, verdictOK, -0.5},
		{"throughput dropped", tight(1000), tight(800), true, false, 0.1, verdictWorse, 0.2},
		{"throughput rose", tight(1000), tight(1300), true, false, 0.1, verdictOK, -0.3},
		{"spread wider than bound", wide(10), tight(12), false, false, 0.1, verdictUnresolved, 0.2},
		{"spread wider on b", tight(10), wide(10), false, false, 0.1, verdictUnresolved, 0},
		// 0.80 -> 0.79 is 1.25% of 0.80 but one point of recall.
		{"share within absolute bound", share(0.8), share(0.792), true, true, 0.01, verdictOK, 0.008},
		{"share beyond absolute bound", share(0.8), share(0.788), true, true, 0.01, verdictWorse, 0.012},
	} {
		delta, verdict := judge(c.a, c.b, c.higherBetter, c.absolute, c.bound)
		if verdict != c.verdict || math.Abs(delta-c.delta) > 1e-9 {
			t.Errorf("%s: got %s %+.3f, want %s %+.3f", c.name, verdict, delta, c.verdict, c.delta)
		}
	}
}

func TestCompareSetsRowsAndVerdicts(t *testing.T) {
	var bf benchmarkFile
	bf.EndToEnd = append(bf.EndToEnd, struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}{"query_qps", "1/s", "higher", 0.1})
	a := map[string]map[string][]float64{"w": {"query_qps": {100, 101, 102, 103}}, "only_a": {"query_qps": {1}}}
	b := map[string]map[string][]float64{"w": {"query_qps": {80, 81, 82, 83}}}
	rows := compareSets(bf, a, b, map[string]string{"query_qps": "1/s"})
	if len(rows) != 1 || rows[0].workload != "w" || rows[0].verdict != verdictWorse {
		t.Fatalf("rows = %+v, want one worse row for workload w", rows)
	}
}
