package exec

import (
	"sync"
	"testing"
	"time"

	"skandium/internal/clock"
	"skandium/internal/estimate"
	"skandium/internal/event"
	"skandium/internal/muscle"
	"skandium/internal/skel"
	"skandium/internal/statemachine"
)

// TestMuscleBeforeReadsAfresh: seq's Skeleton/Before opens the execute
// muscle's timing, so it reads the clock afresh instead of reusing the
// worker's reading, and the worker drops its reading after the muscle, so
// Skeleton/After reads afresh too. A listener that spends 2 ms on every
// NestedSkel/Before, which runs just before the seq's Before, leaves the
// muscle's t(fe) at the 3 ms it takes. The clock is virtual, so both
// durations are exact.
func TestMuscleBeforeReadsAfresh(t *testing.T) {
	clk := clock.NewVirtual(clock.Epoch)
	pool := NewPool(clk, 1, 0)
	defer pool.Close()
	est := estimate.NewRegistry(estimate.DefaultRho)
	reg := event.NewRegistry()
	reg.AddFiltered(event.Func(func(e *event.Event) any {
		clock.Sleep(clk, 2*time.Millisecond)
		return e.Param
	}), event.Filter{When: event.Before, HasWhen: true, Where: event.NestedSkel, HasWhere: true})
	reg.Add(statemachine.NewEstimator(est).Listener())
	fe := muscle.NewExecute("3ms", func(p any) (any, error) {
		clock.Sleep(clk, 3*time.Millisecond)
		return p, nil
	})
	root := NewRoot(pool, reg, clk)
	res, err := root.Start(skel.NewMap(fsRange(), skel.NewSeq(fe), fmSum()), 8).GetContext(testCtx(t))
	if err != nil || res != 28 {
		t.Fatalf("got (%v, %v), want 28", res, err)
	}
	if n := est.DurationObservations(fe.ID()); n != 8 {
		t.Fatalf("%d observations of t(fe), want 8", n)
	}
	if d, _ := est.Duration(fe.ID()); d != 3*time.Millisecond {
		t.Fatalf("t(fe) = %v, want the muscle's 3ms", d)
	}
}

// TestRetryBeforeReadsAfterBackoff: the Before a retry re-raises is stamped
// after the backoff, so the estimator times the succeeding attempt alone.
func TestRetryBeforeReadsAfterBackoff(t *testing.T) {
	clk := clock.NewVirtual(clock.Epoch)
	pool := NewPool(clk, 1, 0)
	defer pool.Close()
	var mu sync.Mutex
	var stamps []time.Duration
	var wheres []event.Where
	reg := event.NewRegistry()
	reg.Add(event.Func(func(e *event.Event) any {
		mu.Lock()
		stamps = append(stamps, e.Time.Sub(clock.Epoch))
		wheres = append(wheres, e.Where)
		mu.Unlock()
		return e.Param
	}))
	root := NewRoot(pool, reg, clk)
	root.SetFaults(FaultConfig{Retry: RetryPolicy{MaxAttempts: 2, BaseDelay: 10 * time.Millisecond}})
	if res, err := root.Start(skel.NewSeq(flaky(1)), 1).GetContext(testCtx(t)); err != nil || res != 2 {
		t.Fatalf("got (%v, %v)", res, err)
	}
	mu.Lock()
	defer mu.Unlock()
	// Skeleton/Before, Retry, Skeleton/Before again, Skeleton/After.
	if len(wheres) != 4 || wheres[1] != event.Retry || wheres[2] != event.Skeleton {
		t.Fatalf("events %v", wheres)
	}
	if stamps[1] != 0 || stamps[2] != 10*time.Millisecond || stamps[3] != 10*time.Millisecond {
		t.Fatalf("stamps %v, want [0 0 10ms 10ms]", stamps)
	}
}

// TestRootOnPoolReadsPoolClock: a root on a pool reads the pool's clock,
// whatever clock it is given, so the worker's take reading and the events'
// readings come from one clock. Events of a task stamped on a virtual pool
// clock carry its time, not the wall clock's.
func TestRootOnPoolReadsPoolClock(t *testing.T) {
	clk := clock.NewVirtual(clock.Epoch)
	pool := NewPool(clk, 1, 0)
	defer pool.Close()
	var mu sync.Mutex
	var stamps []time.Time
	reg := event.NewRegistry()
	reg.Add(event.Func(func(e *event.Event) any {
		mu.Lock()
		stamps = append(stamps, e.Time)
		mu.Unlock()
		return e.Param
	}))
	root := NewRoot(pool, reg, clock.System)
	if root.Clock() != clock.Clock(clk) {
		t.Fatalf("root clock %v, want the pool's", root.Clock())
	}
	if _, err := root.Start(skel.NewMap(fsRange(), skel.NewSeq(feDouble()), fmSum()), 4).GetContext(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, s := range stamps {
		if !s.Equal(clock.Epoch) {
			t.Fatalf("event %d stamped %v, want the virtual %v", i, s, clock.Epoch)
		}
	}
}
