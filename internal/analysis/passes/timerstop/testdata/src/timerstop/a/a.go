// Package a seeds timer lifecycle shapes, among them a query collector's
// collection-window idiom.
package a

import "time"

func work()           {}
func done() chan int  { return nil }
func full() chan bool { return nil }

// batcherIdiom is the collection-window shape: one branch stops the
// timer, the other drains it. Every path settles the timer.
func batcherIdiom(window time.Duration) {
	timer := time.NewTimer(window)
	select {
	case <-full():
		timer.Stop()
	case <-timer.C:
	}
	work()
}

// deferStop covers all exits.
func deferStop(d time.Duration, fail bool) {
	t := time.NewTimer(d)
	defer t.Stop()
	if fail {
		return
	}
	work()
}

// leakyBranch misses the Stop when the select takes the data branch.
func leakyBranch(d time.Duration) {
	t := time.NewTimer(d) // want `not stopped on every path`
	select {
	case <-done():
		work()
	case <-t.C:
	}
}

// afterInLoop allocates a timer per iteration.
func afterInLoop(d time.Duration) {
	for {
		select {
		case <-done():
			work()
		case <-time.After(d): // want `time.After in a loop`
			return
		}
	}
}

// afterOneShot outside a loop is idiomatic.
func afterOneShot(d time.Duration) {
	select {
	case <-done():
		work()
	case <-time.After(d):
	}
}

// justifiedAfter carries the escape hatch.
func justifiedAfter(d time.Duration) {
	for {
		select {
		case <-done():
			return
		//jdvs:timer-ok loop exits after the first tick in every configuration; at most one extra timer lives
		case <-time.After(d):
			work()
		}
	}
}

// tickerStopped: deferred Stop covers the ticker.
func tickerStopped(d time.Duration) {
	tk := time.NewTicker(d)
	defer tk.Stop()
	for range tk.C {
		work()
	}
}

// tickerLeaks: no Stop anywhere.
func tickerLeaks(d time.Duration) {
	tk := time.NewTicker(d) // want `not stopped on every path`
	for range tk.C {
		work()
	}
}

// drainIsNotEnoughForTicker: tickers re-arm; only Stop settles them.
func drainIsNotEnoughForTicker(d time.Duration) {
	tk := time.NewTicker(d) // want `not stopped on every path`
	<-tk.C
	work()
}

// drainSettlesTimer: a fired one-shot timer holds nothing.
func drainSettlesTimer(d time.Duration) {
	t := time.NewTimer(d)
	<-t.C
	work()
}

// unboundTicker can never be stopped.
func unboundTicker(d time.Duration) {
	<-time.NewTicker(d).C // want `Stop can never be called`
	work()
}

// unboundTimerFires: blocks until fire, then holds nothing.
func unboundTimerFires(d time.Duration) {
	<-time.NewTimer(d).C
	work()
}

// afterFuncExempt: the callback firing is the cleanup.
func afterFuncExempt(d time.Duration) {
	time.AfterFunc(d, work)
}

// tickLeaks: time.Tick's ticker is unstoppable.
func tickLeaks(d time.Duration) {
	for range time.Tick(d) { // want `time.Tick's ticker can never be stopped`
		work()
	}
}

// methodAfterIsNotTimeAfter: time.Time.After shares a name with the
// package function but allocates no timer; deadline polls are clean.
func methodAfterIsNotTimeAfter(deadline time.Time) {
	for !time.Now().After(deadline) {
		work()
	}
}
