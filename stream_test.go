package skandium

import (
	"context"
	"math/bits"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skandium/internal/exec"
)

// nestedSleepProgram is the two-level shared-muscle shape with sleep
// muscles (parallelizable even on one CPU).
func nestedSleepProgram(fanout int, d time.Duration) Skeleton[int, int] {
	fs := NewSplit("fs", func(n int) ([]int, error) {
		out := make([]int, fanout)
		for i := range out {
			out[i] = i
		}
		return out, nil
	})
	fe := NewExec("fe", func(n int) (int, error) {
		time.Sleep(d)
		return 1, nil
	})
	fm := NewMerge("fm", func(ps []int) (int, error) {
		s := 0
		for _, p := range ps {
			s += p
		}
		return s, nil
	})
	inner := Map(fs, Seq(fe), fm)
	return Map(fs, inner, fm)
}

// TestConcurrentAutonomicInputs: several goal-driven inputs share one pool;
// each gets its own controller and decision log, all complete correctly.
// The pool LP is a shared lever — the controllers cooperate on it
// (last-writer-wins per analysis), which is the stream semantics the
// library documents.
func TestConcurrentAutonomicInputs(t *testing.T) {
	prog := nestedSleepProgram(3, 4*time.Millisecond)
	st := NewStream[int, int](prog,
		WithLP(1),
		WithMaxLP(12),
		WithWCTGoal(60*time.Millisecond))
	defer st.Close()

	const jobs = 4
	var wg sync.WaitGroup
	results := make([]int, jobs)
	decided := make([]int, jobs)
	errs := make([]error, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ex := st.Input(0)
			results[i], errs[i] = ex.Get()
			decided[i] = len(ex.Decisions())
		}(i)
	}
	wg.Wait()
	adapted := 0
	for i := 0; i < jobs; i++ {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		if results[i] != 9 {
			t.Fatalf("job %d: result %d, want 9", i, results[i])
		}
		adapted += decided[i]
	}
	if adapted == 0 {
		t.Fatal("no execution adapted")
	}
}

// TestCloseIdempotentAndInputFails: stream lifecycle edges — double Close is
// safe, and Input after Close yields an execution resolved with ErrClosed
// instead of panicking (a daemon may evict a job while a submission races).
func TestCloseIdempotentAndInputFails(t *testing.T) {
	id := NewExec("id", func(n int) (int, error) { return n, nil })
	st := NewStream[int, int](Seq(id))
	st.Close()
	st.Close()
	if _, err := st.Input(1).Get(); err != ErrClosed {
		t.Fatalf("Input on closed stream: err = %v, want ErrClosed", err)
	}
}

// TestCloseConcurrentWithInputAndDrain: Close racing in-flight Input and
// Drain calls must neither panic nor hang — every injected execution
// resolves (with its result or ErrClosed) and Drain returns. Run with
// -race; this is the regression test for the daemon's job-eviction and
// shutdown paths.
func TestCloseConcurrentWithInputAndDrain(t *testing.T) {
	slow := NewExec("slow", func(n int) (int, error) {
		time.Sleep(200 * time.Microsecond)
		return n, nil
	})
	for round := 0; round < 8; round++ {
		st := NewStream[int, int](Seq(slow), WithLP(2))
		var wg sync.WaitGroup
		execs := make(chan *Execution[int], 64)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 8; i++ {
					execs <- st.Input(g*8 + i)
				}
			}(g)
		}
		wg.Add(2)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := st.Drain(ctx); err != nil {
				t.Errorf("Drain: %v", err)
			}
		}()
		go func() {
			defer wg.Done()
			time.Sleep(time.Duration(round) * 300 * time.Microsecond)
			st.Close()
			st.Close() // idempotent under contention too
		}()
		wg.Wait()
		close(execs)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for ex := range execs {
				if _, err := ex.Get(); err != nil && err != ErrClosed && err != exec.ErrPoolClosed {
					t.Errorf("unexpected error: %v", err)
				}
			}
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("executions did not resolve after Close")
		}
	}
}

// TestGaugeThroughPublicAPI: WithGauge observes worker activity.
func TestGaugeThroughPublicAPI(t *testing.T) {
	prog := nestedSleepProgram(2, 2*time.Millisecond)
	var mu sync.Mutex
	peak := 0
	st := NewStream[int, int](prog, WithLP(3),
		WithGauge(func(_ time.Time, active, lp int) {
			mu.Lock()
			if active > peak {
				peak = active
			}
			mu.Unlock()
		}))
	defer st.Close()
	if _, err := st.Do(0); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if peak < 1 {
		t.Fatal("gauge saw no activity")
	}
	if peak > 3 {
		t.Fatalf("gauge peak %d exceeds LP", peak)
	}
}

// TestDrainWaitsForInFlight: Drain returns only after every injected
// execution resolved; the stream stays usable.
func TestDrainWaitsForInFlight(t *testing.T) {
	slow := NewExec("slow", func(n int) (int, error) {
		time.Sleep(5 * time.Millisecond)
		return n, nil
	})
	st := NewStream[int, int](Seq(slow), WithLP(2))
	defer st.Close()
	for i := 0; i < 6; i++ {
		st.Input(i)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := st.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if res, err := st.Do(7); err != nil || res != 7 {
		t.Fatalf("stream unusable after drain: %v/%v", res, err)
	}
}

// TestDrainContextCancel: a canceled context aborts the wait.
func TestDrainContextCancel(t *testing.T) {
	block := make(chan struct{})
	stuck := NewExec("stuck", func(n int) (int, error) {
		<-block
		return n, nil
	})
	st := NewStream[int, int](Seq(stuck), WithLP(1))
	defer st.Close()
	defer close(block)
	ex := st.Input(1)
	_ = ex
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if err := st.Drain(ctx); err == nil {
		t.Fatal("drain returned while execution blocked")
	}
}

// TestRemainingOptionCoverage exercises the less-traveled options and
// accessors together: virtual clock, throttled analyses, damped decreases,
// explicit policies, farm wrapper, and the execution accessors.
func TestRemainingOptionCoverage(t *testing.T) {
	prog := Farm(nestedSleepProgram(3, 2*time.Millisecond))
	minimal, err := NewPolicy("paper-minimal", 0)
	if err != nil {
		t.Fatal(err)
	}
	st := NewStream[int, int](prog,
		WithLP(1),
		WithMaxLP(8),
		WithWCTGoal(40*time.Millisecond),
		WithAnalysisInterval(time.Millisecond),
		WithDecreaseHold(10*time.Millisecond),
		WithPolicy(minimal),
		WithClock(nil2clock()),
	)
	defer st.Close()
	ex := st.Input(0)
	select {
	case <-ex.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("execution did not finish")
	}
	res, err := ex.Get()
	if err != nil {
		t.Fatal(err)
	}
	if res != 9 {
		t.Fatalf("result %d", res)
	}
	_ = ex.Analyses()
	_ = ex.Decisions()
	// Muscle accessors on every handle flavour.
	fs := intRange()
	fm := intSum()
	fc := NewCond("c", func(n int) (bool, error) { return false, nil })
	if fs.Muscle() == nil || fm.Muscle() == nil || fc.Muscle() == nil {
		t.Fatal("nil muscle accessor")
	}
}

// nil2clock returns the default clock through the public option path.
func nil2clock() clockIface { return realClock{} }

type clockIface = interface{ Now() time.Time }

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

// TestConcurrentInputsCloneStatefulPolicy is the race regression for
// WithPolicy on a multi-input stream: one configured stateful policy value
// (bandit: unsynchronized PRNG plus an arm-value map) used to be handed
// verbatim to every input's controller, so concurrent executions raced on
// it — a concurrent map write is a fatal runtime panic. Input now clones
// the policy per execution (PolicyCloner); several goal-bound inputs in
// flight at once let -race flag any state still shared.
func TestConcurrentInputsCloneStatefulPolicy(t *testing.T) {
	for _, name := range []string{"bandit", "hillclimb"} {
		pol, err := NewPolicy(name, 42)
		if err != nil {
			t.Fatal(err)
		}
		prog := Farm(nestedSleepProgram(3, time.Millisecond))
		st := NewStream[int, int](prog,
			WithLP(1),
			WithMaxLP(8),
			WithWCTGoal(10*time.Millisecond),
			WithAnalysisTicker(time.Millisecond),
			WithPolicy(pol),
		)
		var exs []*Execution[int]
		for i := 0; i < 6; i++ {
			exs = append(exs, st.Input(0))
		}
		for _, ex := range exs {
			if res, err := ex.Get(); err != nil || res != 9 {
				t.Fatalf("policy %s: result %v, %v", name, res, err)
			}
		}
		st.Close()
	}
}

// TestAnalysisTickerCatchesStraggler: a muscle that wildly overruns its
// estimate emits no events, so an event-driven controller stays blind
// until it ends. The periodic ticker re-analyzes mid-muscle, notices the
// projection slipping past the goal, and raises LP so the remaining
// branches overlap the straggler.
func TestAnalysisTickerCatchesStraggler(t *testing.T) {
	var calls atomic.Int64
	fs := NewSplit("fs", func(n int) ([]int, error) {
		out := make([]int, 6)
		for i := range out {
			out[i] = i
		}
		return out, nil
	})
	fe := NewExec("fe", func(n int) (int, error) {
		if calls.Add(1) == 2 {
			// The second invocation is a 40ms straggler; the first taught
			// the estimator ~2ms.
			time.Sleep(40 * time.Millisecond)
		} else {
			time.Sleep(2 * time.Millisecond)
		}
		return 1, nil
	})
	fm := NewMerge("fm", func(ps []int) (int, error) {
		s := 0
		for _, p := range ps {
			s += p
		}
		return s, nil
	})
	inner := Map(fs, Seq(fe), fm)
	prog := Map(fs, inner, fm)

	st := NewStream[int, int](prog,
		WithLP(1),
		WithMaxLP(8),
		WithWCTGoal(60*time.Millisecond),
		WithAnalysisTicker(3*time.Millisecond))
	defer st.Close()
	ex := st.Input(0)
	res, err := ex.Get()
	if err != nil {
		t.Fatal(err)
	}
	if res != 36 {
		t.Fatalf("result %d, want 36", res)
	}
	if len(ex.Decisions()) == 0 {
		t.Fatal("ticker-driven controller never adapted")
	}
}

// TestGoalExecutionSleepGrid8x8: goal_grid's shape on the real pool — an
// 8×8 two-level map of sleeping cells from LP 1, under a goal it meets only
// by adapting — with an analysis on every After (1 ms throttle) and a 1 ms
// ticker, so rebuilds of the controller's kept graph and reschedules at the
// ticker's instants run while workers record events. make race runs it
// under the race detector.
func TestGoalExecutionSleepGrid8x8(t *testing.T) {
	prog := nestedSleepProgram(8, 2*time.Millisecond)
	st := NewStream[int, int](prog, WithLP(1), WithMaxLP(16), WithWCTGoal(80*time.Millisecond),
		WithAnalysisInterval(time.Millisecond), WithAnalysisTicker(time.Millisecond))
	defer st.Close()
	for i := 0; i < 3; i++ {
		ex := st.Input(0)
		if got, err := ex.Get(); err != nil || got != 64 {
			t.Fatalf("input %d: got %d, %v; want 64", i, got, err)
		}
		if ex.Analyses() == 0 {
			t.Fatalf("input %d: no analysis ran", i)
		}
		if i == 0 && len(ex.Decisions()) == 0 {
			t.Fatal("a 128 ms grid under an 80 ms goal from LP 1 never adapted")
		}
	}
}

// TestGoalExecutionReleasesActivationTree: the tree exists for the
// controller; once the future resolves nothing predicts from it any more, so
// the execution handle (a daemon keeps those of finished jobs) must not pin
// it. Decisions and estimates stay readable. Without a goal there is no
// controller and no tree to begin with.
func TestGoalExecutionReleasesActivationTree(t *testing.T) {
	prog := nestedSleepProgram(4, time.Millisecond)
	st := NewStream[int, int](prog, WithLP(1), WithMaxLP(4),
		WithWCTGoal(50*time.Millisecond), WithAnalysisTicker(2*time.Millisecond))
	defer st.Close()
	ex := st.Input(0)
	if _, err := ex.Get(); err != nil {
		t.Fatal(err)
	}
	tr := ex.ctl.Tracker()
	for deadline := time.Now().Add(5 * time.Second); tr.InstanceCount() != 0 || tr.Root() != nil; {
		if time.Now().After(deadline) {
			t.Fatalf("finished goal execution still holds %d instances", tr.InstanceCount())
		}
		time.Sleep(time.Millisecond)
	}
	if ex.Analyses() == 0 || len(st.Profile()) == 0 {
		t.Fatalf("analyses %d, profile %v: the run taught nothing", ex.Analyses(), st.Profile())
	}

	plain := NewStream[int, int](prog, WithLP(2))
	defer plain.Close()
	if ex := plain.Input(0); ex.ctl != nil {
		t.Fatal("goal-less execution got a controller")
	} else if _, err := ex.Get(); err != nil {
		t.Fatal(err)
	}
	if len(plain.Profile()) != len(st.Profile()) {
		t.Fatalf("goal-less run profiled %d muscles, goal run %d", len(plain.Profile()), len(st.Profile()))
	}
}

// TestGoallessStreamAllocsPerTaskZero: a goal-less execution recycles each
// finished activation's estimator instance, so one Stream.Do allocates the
// same at width 256 as at width 16 — no allocation is per task. Input and
// result are the width's log2, so boxing them allocates at neither width.
func TestGoallessStreamAllocsPerTaskZero(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop objects")
	}
	// A collection would empty the engine's pools mid-count.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fs := NewSplit("fs", func(log2 int) ([]int, error) {
		out := make([]int, 1<<log2)
		for i := range out {
			out[i] = i
		}
		return out, nil
	})
	id := NewExec("id", func(n int) (int, error) { return n, nil })
	fm := NewMerge("fm", func(ps []int) (int, error) { return bits.Len(uint(len(ps))) - 1, nil })
	st := NewStream[int, int](Map(fs, Seq(id), fm), WithLP(4))
	defer st.Close()
	allocs := func(log2 int) float64 {
		return testing.AllocsPerRun(200, func() {
			if res, err := st.Do(log2); err != nil || res != log2 {
				t.Fatalf("res=%v err=%v", res, err)
			}
		})
	}
	if narrow, wide := allocs(4), allocs(8); wide != narrow {
		t.Fatalf("one Do allocates %.2f times at width 256, %.2f at width 16", wide, narrow)
	}
}
