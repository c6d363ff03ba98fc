package main

import (
	"context"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"jdvs/internal/search/client"
)

// window is the slice of a phase that is measured on its own. The machine
// this runs on changes speed by a fifth for seconds at a time, so a phase is
// cut into windows and a timing is read from the median or the calmest
// window, not from the phase as a whole.
const window = time.Second

// phaseResult is what one query phase saw from outside the program.
type phaseResult struct {
	attempted int64
	failed    int64 // RPC errors plus short pages on unfiltered queries
	wall      time.Duration
	latNs     []int64 // per request; -1 where the request failed
	lateNs    []int64 // open loop only: send time minus due time
	dueNs     []int64 // open loop only: due time from the phase's start
	// Closed loop only, one value per window: completions per second and
	// process CPU per completion.
	qps, cpuMs []float64
}

func (r *phaseResult) completed() int64 { return r.attempted - r.failed }

// sleepUntil blocks the calling thread until t on the kernel's timer.
// time.Sleep wakes through the runtime's poller, whose timeout has
// millisecond resolution while the process is mostly idle: an open-loop
// send then goes out half a millisecond late at the median, which would be
// charged to every request. Signals cut the kernel sleep short, hence the
// loop.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // on EINTR the loop sleeps the rest
	}
}

// cpuTime is the CPU the whole process has used, generator included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// issuer sends request number i and reports whether it succeeded.
type issuer func(ctx context.Context, i int) bool

// querier sends a workload's queries over one connection and tallies what
// comes back.
type querier struct {
	cl      *client.Client
	tr      *traffic
	scanned atomic.Int64
	probed  atomic.Int64
}

func dialQuerier(addr string, tr *traffic) (*querier, error) {
	cl, err := client.Dial(addr, 1)
	if err != nil {
		return nil, err
	}
	return &querier{cl: cl, tr: tr}, nil
}

// send issues pool entry idx. A page shorter than TopK counts as a failure
// on unfiltered queries; a selective filter may legitimately run short.
func (q *querier) send(ctx context.Context, idx int) bool {
	resp, err := q.cl.Query(ctx, q.tr.query(idx))
	if err != nil {
		return false
	}
	q.scanned.Add(int64(resp.Scanned))
	q.probed.Add(int64(resp.Probed))
	return q.tr.scoped || len(resp.Hits) >= topK
}

// closedLoop runs one back-to-back client per querier until the deadline:
// each sends its next request only after the previous one completed.
func closedLoop(ctx context.Context, qs []*querier, firstStream int, dur time.Duration) *phaseResult {
	type tally struct {
		lat       []int64
		attempted int64
		failed    int64
	}
	tallies := make([]tally, len(qs))
	var completed atomic.Int64
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for w, q := range qs {
		wg.Add(1)
		go func(w int, q *querier) {
			defer wg.Done()
			pick := q.tr.picker(firstStream + w)
			t := &tallies[w]
			for time.Now().Before(deadline) && ctx.Err() == nil {
				t0 := time.Now()
				ok := q.send(ctx, pick.next())
				t.attempted++
				if ok {
					t.lat = append(t.lat, int64(time.Since(t0)))
					completed.Add(1)
				} else {
					t.failed++
				}
			}
		}(w, q)
	}
	// This goroutine reads the counters at every window's end.
	res := &phaseResult{}
	lastAt, lastDone, lastCPU := start, int64(0), cpuTime()
	for w := 1; w <= int(dur/window) && ctx.Err() == nil; w++ {
		time.Sleep(time.Until(start.Add(time.Duration(w) * window)))
		at, done, cpu := time.Now(), completed.Load(), cpuTime()
		res.qps = append(res.qps, ratio(float64(done-lastDone), at.Sub(lastAt).Seconds()))
		res.cpuMs = append(res.cpuMs, ratio(ms(cpu-lastCPU), float64(done-lastDone)))
		lastAt, lastDone, lastCPU = at, done, cpu
	}
	wg.Wait()
	res.wall = time.Since(start)
	for i := range tallies {
		res.attempted += tallies[i].attempted
		res.failed += tallies[i].failed
		res.latNs = append(res.latNs, tallies[i].lat...)
	}
	return res
}

// openLoop sends n requests on a fixed schedule, request i due at
// start+i/rate, whatever the replies do. gens generator goroutines take the
// schedule in turn; every request runs on its own goroutine so a slow reply
// never holds the next send back. Latency runs from the due time, so a
// stall in the generator or the system is charged to every request that was
// due during it; lateNs records how late each send was.
type openLoop struct {
	rate  float64
	n     int
	gens  int
	issue issuer
	// grace bounds how long replies are awaited after the last due time.
	grace time.Duration
	// beforeSend, when set, runs on the generator just before request i is
	// sent: tests use it to stall the generator.
	beforeSend func(i int)
}

func (o *openLoop) run(ctx context.Context) *phaseResult {
	res := &phaseResult{
		latNs:  make([]int64, o.n),
		lateNs: make([]int64, o.n),
		dueNs:  make([]int64, o.n),
	}
	interval := float64(time.Second) / o.rate
	start := time.Now().Add(time.Millisecond)
	end := start.Add(time.Duration(float64(o.n)*interval) + o.grace)
	ctx, cancel := context.WithDeadline(ctx, end)
	defer cancel()

	var failed, attempted atomic.Int64
	var gens, inflight sync.WaitGroup
	for g := 0; g < o.gens; g++ {
		gens.Add(1)
		go func(g int) {
			defer gens.Done()
			for i := g; i < o.n; i += o.gens {
				res.dueNs[i] = int64(float64(i) * interval)
				due := start.Add(time.Duration(res.dueNs[i]))
				if ctx.Err() == nil {
					sleepUntil(due)
				}
				if ctx.Err() != nil {
					// Never sent: attempted and failed, with no latency.
					res.latNs[i], res.lateNs[i] = -1, -1
					attempted.Add(1)
					failed.Add(1)
					continue
				}
				if o.beforeSend != nil {
					o.beforeSend(i)
				}
				res.lateNs[i] = int64(time.Since(due))
				attempted.Add(1)
				inflight.Add(1)
				go func(i int, due time.Time) {
					defer inflight.Done()
					if o.issue(ctx, i) {
						res.latNs[i] = int64(time.Since(due))
					} else {
						res.latNs[i] = -1
						failed.Add(1)
					}
				}(i, due)
			}
		}(g)
	}
	gens.Wait()
	res.wall = time.Since(start)
	inflight.Wait()
	res.attempted, res.failed = attempted.Load(), failed.Load()
	return res
}

// queryOpenLoop wires an openLoop to the queriers: request i goes over
// connection i mod len(qs), with pool indices drawn up front so the issue
// path does no generation work.
func queryOpenLoop(ctx context.Context, qs []*querier, firstStream int, rate float64, dur time.Duration) *phaseResult {
	n := int(rate * dur.Seconds())
	if n < 1 {
		n = 1
	}
	idx := make([]int, n)
	picks := make([]*picker, len(qs))
	for w, q := range qs {
		picks[w] = q.tr.picker(firstStream + w)
	}
	for i := range idx {
		idx[i] = picks[i%len(qs)].next()
	}
	o := &openLoop{
		rate: rate, n: n, gens: len(qs), grace: 5 * time.Second,
		issue: func(ctx context.Context, i int) bool { return qs[i%len(qs)].send(ctx, idx[i]) },
	}
	return o.run(ctx)
}
