package exec

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"skandium/internal/clock"
	"skandium/internal/event"
	"skandium/internal/muscle"
	"skandium/internal/skel"
)

// ErrMuscleTimeout is wrapped by the MuscleError of an attempt that
// overran its per-muscle deadline. Detect it with errors.Is.
var ErrMuscleTimeout = errors.New("muscle deadline exceeded")

// RetryPolicy bounds how a failed muscle invocation is retried. The zero
// value disables retries (a single attempt). Backoff is exponential:
// attempt k waits BaseDelay·Multiplier^(k-1), capped at MaxDelay, with a
// symmetric ±Jitter fraction drawn from a seeded source so runs are
// reproducible.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts (first call included).
	// Values <= 1 mean no retry.
	MaxAttempts int
	// BaseDelay is the wait before the first retry (0 = immediate).
	BaseDelay time.Duration
	// MaxDelay caps the exponential backoff (0 = uncapped).
	MaxDelay time.Duration
	// Multiplier is the backoff growth factor (values < 1 default to 2).
	Multiplier float64
	// Jitter is the relative backoff noise in [0,1]: the wait is scaled by
	// a uniform factor in [1-Jitter, 1+Jitter].
	Jitter float64
	// Seed makes the jitter sequence reproducible (0 uses seed 1).
	Seed int64
	// RetryIf, when non-nil, restricts which errors are retried. The error
	// passed is the attempt's MuscleError (unwrap for the cause). Timeouts
	// are retryable like any other failure unless RetryIf rejects them.
	RetryIf func(error) bool
}

// maxAttempts normalizes the attempt budget.
func (p RetryPolicy) maxAttempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// shouldRetry consults RetryIf (nil retries everything).
func (p RetryPolicy) shouldRetry(err error) bool {
	return p.RetryIf == nil || p.RetryIf(err)
}

// partialMode enumerates the fan-out failure policies.
type partialMode int

const (
	failFast partialMode = iota
	skipFailed
	substituteFailed
)

// PartialPolicy decides what happens when one branch of a data-parallel
// fan-out (map, fork, d&c) fails terminally. Build values with FailFast,
// SkipFailed or Substitute.
type PartialPolicy struct {
	mode partialMode
	sub  any
}

// FailFast aborts the whole execution on the first branch failure — the
// default, and the only behaviour the paper's engine had.
func FailFast() PartialPolicy { return PartialPolicy{mode: failFast} }

// SkipFailed drops failed branches before the merge: the merge muscle
// receives only the surviving results (it must tolerate a shorter slice).
// When every branch of a fan-out fails, the activation fails with the
// FailureError aggregate.
func SkipFailed() PartialPolicy { return PartialPolicy{mode: skipFailed} }

// Substitute replaces each failed branch's result with v before the merge,
// preserving the fan-out's cardinality.
func Substitute(v any) PartialPolicy { return PartialPolicy{mode: substituteFailed, sub: v} }

// String names the policy for logs and the daemon API.
func (p PartialPolicy) String() string {
	switch p.mode {
	case skipFailed:
		return "skip"
	case substituteFailed:
		return "substitute"
	default:
		return "failfast"
	}
}

// FaultConfig is the fault-tolerance envelope of one Root (usually shared
// by every root of a stream). The zero value reproduces the historical
// behaviour: no deadline, no retry, fail-fast.
type FaultConfig struct {
	// Timeout is the per-muscle deadline. A muscle attempt overrunning it
	// fails with ErrMuscleTimeout; the abandoned goroutine finishes in the
	// background and its result is discarded, so muscles guarded by a
	// timeout should be side-effect-free or idempotent.
	Timeout time.Duration
	// Retry is applied to every muscle invocation.
	Retry RetryPolicy
	// Partial governs branch failures in map/fork/d&c fan-outs.
	Partial PartialPolicy
	// Counters, when non-nil, aggregates fault statistics across roots (a
	// stream installs one shared instance). Nil gets a private one.
	Counters *FaultCounters
}

// FaultCounters accumulates fault-tolerance statistics. Safe for concurrent
// use; share one instance across the roots of a stream.
type FaultCounters struct {
	retries     atomic.Uint64
	faults      atomic.Uint64
	timeouts    atomic.Uint64
	skipped     atomic.Uint64
	substituted atomic.Uint64
}

// FaultStats is a snapshot of FaultCounters.
type FaultStats struct {
	// Retries counts failed attempts that were retried.
	Retries uint64
	// Faults counts terminal muscle failures (retry budget exhausted).
	Faults uint64
	// Timeouts counts attempts killed by the per-muscle deadline (each is
	// also counted as a retry or fault, depending on what followed).
	Timeouts uint64
	// Skipped counts branches dropped by the SkipFailed policy.
	Skipped uint64
	// Substituted counts branches replaced by the Substitute policy.
	Substituted uint64
}

// Stats snapshots the counters. Safe on a nil receiver (all zeros).
func (c *FaultCounters) Stats() FaultStats {
	if c == nil {
		return FaultStats{}
	}
	return FaultStats{
		Retries:     c.retries.Load(),
		Faults:      c.faults.Load(),
		Timeouts:    c.timeouts.Load(),
		Skipped:     c.skipped.Load(),
		Substituted: c.substituted.Load(),
	}
}

// BranchFailure records one fan-out branch lost to the partial-failure
// policy: which branch, how it failed, and whether a substitute stood in.
type BranchFailure struct {
	// Branch is the failed branch's position in its fan-out.
	Branch int
	// Err is the terminal error (a *MuscleError carrying the trace).
	Err error
	// Substituted says whether the Substitute policy filled the slot
	// (false = the branch was skipped).
	Substituted bool
}

// FailureError aggregates the branch failures of one execution. It resolves
// the future when every branch of a fan-out failed under SkipFailed, and is
// available from Root.Failures after partially-degraded successes.
type FailureError struct {
	Failures []BranchFailure
}

// Error implements error.
func (e *FailureError) Error() string {
	skipped, substituted := 0, 0
	for _, f := range e.Failures {
		if f.Substituted {
			substituted++
		} else {
			skipped++
		}
	}
	msg := fmt.Sprintf("skandium: %d branch failure(s) (%d skipped, %d substituted)",
		len(e.Failures), skipped, substituted)
	if len(e.Failures) > 0 {
		msg += ": " + e.Failures[0].Err.Error()
	}
	return msg
}

// guard invokes fn(m, p) with panic recovery, turning panics and errors
// into MuscleError so a buggy muscle aborts its execution instead of the
// process.
func guard[P, T any](m *muscle.Muscle, trace []*skel.Node, p P, fn func(*muscle.Muscle, P) (T, error)) (res T, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = &MuscleError{Muscle: m, Trace: trace, Err: fmt.Errorf("panic: %v", rec)}
		}
	}()
	res, err = fn(m, p)
	if err != nil {
		err = &MuscleError{Muscle: m, Trace: trace, Err: err}
	}
	return res, err
}

// callTimed runs one guarded muscle attempt under the root's per-muscle
// deadline. Without a deadline the muscle runs on the calling worker; with
// one it runs on a helper goroutine so the worker can give up at the
// deadline — the abandoned attempt finishes in the background and its
// result is dropped (running muscles are never interrupted, matching
// Skandium).
func callTimed[P, T any](r *Root, m *muscle.Muscle, trace []*skel.Node, p P, fn func(*muscle.Muscle, P) (T, error)) (T, error) {
	d := r.faults.Timeout
	if d <= 0 {
		return guard(m, trace, p, fn)
	}
	type outcome struct {
		res T
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		res, err := guard(m, trace, p, fn)
		ch <- outcome{res: res, err: err}
	}()
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case o := <-ch:
		return o.res, o.err
	case <-timer.C:
		r.counters().timeouts.Add(1)
		var zero T
		return zero, &MuscleError{Muscle: m, Trace: trace,
			Err: fmt.Errorf("%w (deadline %v)", ErrMuscleTimeout, d)}
	}
}

// runAttempts invokes fn(m, ·) under the root's fault policy. first is the
// input of the first attempt (its Before event has already been raised by
// the call site); before each retry, reBefore re-raises the attempt's
// Before event and returns the (listener-threaded) input, so estimators
// time each attempt separately and never double-count. Failed attempts
// raise Retry events while budget remains; the terminal failure raises a
// Fault event and returns the error.
func runAttempts[P, T any](em emitter, m *muscle.Muscle, first P, reBefore func() (P, error), fn func(*muscle.Muscle, P) (T, error)) (T, error) {
	r := em.root
	pol := r.faults.Retry
	p := first
	for attempt := 1; ; attempt++ {
		res, err := callTimed(r, m, em.trace, p, fn)
		em.w.drop()
		if err == nil {
			return res, nil
		}
		if attempt < pol.maxAttempts() && pol.shouldRetry(err) && !r.Canceled() {
			r.counters().retries.Add(1)
			em.emit(event.After, event.Retry, p, func(e *event.Event) {
				e.Err, e.Iter = err, attempt
			})
			clock.Sleep(r.clk, r.backoff(attempt))
			np, berr := reBefore()
			if berr == nil {
				p = np
				continue
			}
			err = berr
		}
		r.counters().faults.Add(1)
		em.emit(event.After, event.Fault, p, func(e *event.Event) {
			e.Err, e.Iter = err, attempt
		})
		var zero T
		return zero, err
	}
}

// backoff computes the jittered exponential wait before retry attempt k
// (1-based: the wait after the k-th failed attempt).
func (r *Root) backoff(attempt int) time.Duration {
	pol := r.faults.Retry
	return clock.Backoff(attempt, pol.BaseDelay, pol.MaxDelay, pol.Multiplier, pol.Jitter, r.jitter)
}

// failedBranch is the result marker a failed fan-out branch reports to its
// parent under a non-fail-fast partial policy; the parent's merge replaces
// or drops it per the policy.
type failedBranch struct {
	err error
}

// absorb routes a task failure to the enclosing fan-out per the root's
// partial-failure policy. It reports true when the failure was absorbed
// (the parent merges around the lost branch) and false when it must fail
// the whole root: fail-fast policy, a root-level task, or a structural
// (non-muscle) error.
func (t *Task) absorb(w *Worker, err error) bool {
	if t.parent == nil {
		return false
	}
	mode := t.root.faults.Partial.mode
	if mode == failFast {
		return false
	}
	var me *MuscleError
	var fe *FailureError
	if !errors.As(err, &me) && !errors.As(err, &fe) {
		return false
	}
	t.root.recordBranchFailure(BranchFailure{
		Branch:      t.branch,
		Err:         err,
		Substituted: mode == substituteFailed,
	})
	t.parent.childDone(w, t.branch, failedBranch{err: err})
	return true
}

// applyPartial resolves failed-branch markers in a fan-out's results per
// the root's policy: substitution preserves cardinality, skipping drops the
// slots. When skipping leaves nothing of a non-empty fan-out, the merge
// cannot proceed and the activation fails with the FailureError aggregate.
// Under fail-fast no marker can exist, and results pass through as they are.
func applyPartial(r *Root, results []any) ([]any, error) {
	pol := r.faults.Partial
	if pol.mode == failFast {
		return results, nil
	}
	kept := make([]any, 0, len(results))
	var lost []BranchFailure
	for b, res := range results {
		fb, failed := res.(failedBranch)
		if !failed {
			kept = append(kept, res)
			continue
		}
		lost = append(lost, BranchFailure{
			Branch:      b,
			Err:         fb.err,
			Substituted: pol.mode == substituteFailed,
		})
		if pol.mode == substituteFailed {
			kept = append(kept, pol.sub)
		}
	}
	if len(lost) > 0 && len(kept) == 0 {
		return nil, &FailureError{Failures: lost}
	}
	return kept, nil
}
