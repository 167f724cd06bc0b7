// Package clock provides a small clock abstraction so that the skeleton
// engine, the estimators and the autonomic controller can run either against
// the real wall clock (production) or against a manually advanced virtual
// clock (deterministic tests and the discrete-event simulator substrate).
//
// All times in the library are expressed as time.Time values obtained from a
// Clock; durations are ordinary time.Duration values. The virtual clock is
// safe for concurrent use.
package clock

import (
	"sync"
	"time"
)

// Clock is the minimal time source used throughout the library.
type Clock interface {
	// Now returns the current time according to this clock.
	Now() time.Time
}

// Real is a Clock backed by the system wall clock.
type Real struct{}

// Now implements Clock using time.Now.
func (Real) Now() time.Time { return time.Now() }

// System is the shared real clock instance.
var System Clock = Real{}

// Virtual is a manually advanced clock. The zero value is not ready for use;
// create instances with NewVirtual.
type Virtual struct {
	mu  sync.RWMutex
	now time.Time
}

// NewVirtual returns a virtual clock positioned at start.
func NewVirtual(start time.Time) *Virtual {
	return &Virtual{now: start}
}

// Epoch is the conventional origin used by tests and the simulator: virtual
// time zero. Using a fixed epoch keeps durations-as-times readable (a
// timestamp of Epoch+70ms means "virtual time 70").
var Epoch = time.Unix(0, 0).UTC()

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.now
}

// Advance moves the clock forward by d. Negative d is ignored: a virtual
// clock never goes backwards.
func (v *Virtual) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	v.mu.Lock()
	v.now = v.now.Add(d)
	v.mu.Unlock()
}

// Set moves the clock to t if t is not before the current time; earlier
// values are ignored so the clock stays monotonic.
func (v *Virtual) Set(t time.Time) {
	v.mu.Lock()
	if t.After(v.now) {
		v.now = t
	}
	v.mu.Unlock()
}

// Advancer is the optional capability of clocks whose time is moved by the
// program instead of the hardware (Virtual implements it). Components that
// must wait a duration — retry backoff, injected latency faults — use it to
// stay deterministic under a virtual clock.
type Advancer interface {
	Advance(d time.Duration)
}

// Sleep waits for d according to clk: on an Advancer (virtual clock) it
// advances the clock and returns immediately, otherwise it sleeps real wall
// time. Non-positive durations return at once.
func Sleep(clk Clock, d time.Duration) {
	if d <= 0 {
		return
	}
	if adv, ok := clk.(Advancer); ok {
		adv.Advance(d)
		return
	}
	time.Sleep(d)
}

// Backoff is the seeded, jittered, capped exponential wait before retry
// attempt k (1-based: the wait after the k-th failed attempt) that every
// retry loop of the system shares: base·mult^(k-1) (mult < 1 means 2),
// capped at limit (0 = uncapped), scaled by a uniform factor in
// [1-jitter, 1+jitter]. uniform draws the [0,1) variate from the caller's
// seeded source and is called only when jitter > 0. A non-positive base
// means no wait.
func Backoff(attempt int, base, limit time.Duration, mult, jitter float64, uniform func() float64) time.Duration {
	if base <= 0 {
		return 0
	}
	if mult < 1 {
		mult = 2
	}
	d := float64(base)
	for i := 1; i < attempt; i++ {
		d *= mult
	}
	if limit > 0 && d > float64(limit) {
		d = float64(limit)
	}
	if jitter > 0 {
		d *= 1 + jitter*(2*uniform()-1)
	}
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}
