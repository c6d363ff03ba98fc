package metrics

import (
	"sync/atomic"
	"time"
)

const (
	// DefaultWindowSize is the sample capacity a zero-configured Window
	// gets: large enough for stable tail estimates, small enough that the
	// periodic quantile refresh sorts in a few microseconds.
	DefaultWindowSize = 512
	// windowRefreshEvery is how many records pass between refreshes of the
	// cached tracked quantiles. The refresh cost (copy + sort of the
	// window) is borne by one recording goroutine every windowRefreshEvery
	// records, so the amortised per-record cost stays a handful of
	// comparisons.
	windowRefreshEvery = 32
)

// Window is a fixed-size ring of the most recent latency samples with
// lock-cheap recording and cached quantile tracking — the streaming
// estimator behind latency-adaptive decisions like the broker's hedged
// requests, where the hot path needs "what is this replica group's p95
// right now?" for the price of an atomic load.
//
// Record is two atomic operations (a counter add and a slot store);
// every windowRefreshEvery records the recording goroutine additionally
// recomputes the tracked quantiles from a snapshot of the ring, guarded by
// a try-lock so concurrent recorders never queue behind the sort. Tracked
// reads the cached value. Quantiles sorts a fresh snapshot on
// demand — exact over the current window, meant for stats endpoints, not
// per-request paths.
//
// Because slots are overwritten in place, a snapshot taken while writers
// are active mixes samples from adjacent windows; each value is itself
// torn-free (atomic), so quantiles are approximate only in which recent
// samples they see — exactly the tolerance a tail estimator has anyway.
type Window struct {
	ring    []atomic.Int64
	count   atomic.Uint64
	tracked []float64
	cached  []atomic.Int64
	busy    atomic.Bool
}

// NewWindow returns a Window holding the last size samples (size <= 0
// takes DefaultWindowSize). The tracked quantiles (percentile values in
// (0,100], e.g. 95 for p95) are kept fresh by Record and read with
// Tracked.
func NewWindow(size int, tracked ...float64) *Window {
	if size <= 0 {
		size = DefaultWindowSize
	}
	return &Window{
		ring:    make([]atomic.Int64, size),
		tracked: append([]float64(nil), tracked...),
		cached:  make([]atomic.Int64, len(tracked)),
	}
}

// Record adds one observation. Negative durations clamp to zero.
func (w *Window) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	pos := w.count.Add(1) - 1
	w.ring[pos%uint64(len(w.ring))].Store(int64(d))
	if len(w.tracked) > 0 && pos%windowRefreshEvery == windowRefreshEvery-1 {
		w.refresh()
	}
}

// Count returns the total number of observations recorded (not capped at
// the window size).
func (w *Window) Count() uint64 { return w.count.Load() }

// Tracked returns the cached value of the i-th tracked quantile. It is 0
// until the first refresh has run (i.e. during warm-up) — callers gate on
// that to avoid acting on an empty estimate.
func (w *Window) Tracked(i int) time.Duration {
	if i < 0 || i >= len(w.cached) {
		return 0
	}
	return time.Duration(w.cached[i].Load())
}

// refresh recomputes the tracked quantiles from a snapshot. The try-lock
// makes concurrent refreshes free: losers skip, the estimate is at most
// windowRefreshEvery records stale.
func (w *Window) refresh() {
	if !w.busy.CompareAndSwap(false, true) {
		return
	}
	defer w.busy.Store(false)
	vals := Quantiles(w.snapshot(), w.tracked...)
	for i := range w.tracked {
		w.cached[i].Store(int64(vals[i]))
	}
}

// snapshot copies the filled portion of the ring (unsorted; the shared
// Quantiles helper sorts).
func (w *Window) snapshot() []time.Duration {
	n := w.count.Load()
	filled := len(w.ring)
	if n < uint64(filled) {
		filled = int(n)
	}
	out := make([]time.Duration, filled)
	for i := 0; i < filled; i++ {
		out[i] = time.Duration(w.ring[i].Load())
	}
	return out
}

// Quantiles returns the qs-th percentiles (0 < q <= 100) over the current
// window, exact at the time of the call: one snapshot, one sort
// (stats-path cost, not hot-path cost). Each is 0 with no samples.
func (w *Window) Quantiles(qs ...float64) []time.Duration {
	return Quantiles(w.snapshot(), qs...)
}
