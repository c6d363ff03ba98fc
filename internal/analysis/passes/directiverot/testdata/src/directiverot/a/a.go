// Package a seeds directive states: live, stale, unjustified, unknown.
// The test runs the suite [lockhold, directiverot], so blocking-ok
// directives have a live owner.
package a

import (
	"sync"
	"time"
)

var mu sync.Mutex

// liveDirective suppresses a real lockhold finding and carries a reason:
// both audits pass.
func liveDirective() {
	mu.Lock()
	//jdvs:blocking-ok the only other holder is this test's own teardown
	time.Sleep(time.Millisecond)
	mu.Unlock()
}

// staleDirective excuses code that no longer violates anything.
func staleDirective() {
	//jdvs:blocking-ok this sleep used to sit under mu // want `suppresses no lockhold finding`
	time.Sleep(time.Millisecond)
}

// unjustified suppresses a live finding but gives the next reader
// nothing to re-evaluate.
func unjustified() {
	mu.Lock()
	/* want `has no justification` */ //jdvs:blocking-ok
	time.Sleep(time.Millisecond)
	mu.Unlock()
}

// typoDirective names no analyzer.
func typoDirective() {
	//jdvs:blocking-okk the sleep is bounded // want `unknown directive`
	time.Sleep(time.Millisecond)
}

// retiredDirectives name analyzers the suite no longer has.
func retiredDirectives() {
	//jdvs:pool-ok the scratch goes back in the caller // want `unknown directive`
	//jdvs:timer-ok the ticker lives as long as the process // want `unknown directive`
	//jdvs:nostat the queue closed, so nothing was dropped // want `unknown directive`
	//jdvs:nolock built before it is published // want `unknown directive`
	time.Sleep(time.Millisecond)
}
