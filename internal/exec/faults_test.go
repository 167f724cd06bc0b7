package exec

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"skandium/internal/clock"
	"skandium/internal/event"
	"skandium/internal/muscle"
	"skandium/internal/plan"
	"skandium/internal/skel"
)

// runFaulty executes nd with the given fault config on a fresh pool.
func runFaulty(t *testing.T, nd *skel.Node, param any, lp int, cfg FaultConfig) (*Root, any, error) {
	t.Helper()
	pool := NewPool(clock.System, lp, 0)
	t.Cleanup(pool.Close)
	root := NewRoot(pool, nil, nil)
	root.SetFaults(cfg)
	res, err := root.Start(nd, param).GetContext(testCtx(t))
	return root, res, err
}

// flaky fails the first n invocations, then succeeds returning p+1.
func flaky(n int) *muscle.Muscle {
	var calls atomic.Int64
	return muscle.NewExecute("flaky", func(p any) (any, error) {
		if calls.Add(1) <= int64(n) {
			return nil, errors.New("transient")
		}
		return p.(int) + 1, nil
	})
}

func TestRetryRecoversTransientFault(t *testing.T) {
	root, res, err := runFaulty(t, skel.NewSeq(flaky(2)), 1, 1, FaultConfig{
		Retry: RetryPolicy{MaxAttempts: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res != 2 {
		t.Fatalf("res = %v, want 2", res)
	}
	st := root.FaultStats()
	if st.Retries != 2 || st.Faults != 0 {
		t.Fatalf("stats = %+v, want 2 retries, 0 faults", st)
	}
}

func TestRetryBudgetExhausted(t *testing.T) {
	root, _, err := runFaulty(t, skel.NewSeq(flaky(10)), 1, 1, FaultConfig{
		Retry: RetryPolicy{MaxAttempts: 3},
	})
	var me *MuscleError
	if !errors.As(err, &me) {
		t.Fatalf("want MuscleError, got %v", err)
	}
	st := root.FaultStats()
	if st.Retries != 2 || st.Faults != 1 {
		t.Fatalf("stats = %+v, want 2 retries, 1 fault", st)
	}
}

func TestRetryIfRejectsError(t *testing.T) {
	root, _, err := runFaulty(t, skel.NewSeq(flaky(1)), 1, 1, FaultConfig{
		Retry: RetryPolicy{MaxAttempts: 5, RetryIf: func(error) bool { return false }},
	})
	if err == nil {
		t.Fatal("want failure when RetryIf rejects")
	}
	if st := root.FaultStats(); st.Retries != 0 || st.Faults != 1 {
		t.Fatalf("stats = %+v, want 0 retries, 1 fault", st)
	}
}

func TestRetryEmitsRetryAndFaultEvents(t *testing.T) {
	reg := event.NewRegistry()
	var retries, faults atomic.Int64
	reg.Add(event.Func(func(e *event.Event) any {
		switch e.Where {
		case event.Retry:
			if e.Err == nil {
				t.Error("Retry event without Err")
			}
			retries.Add(1)
		case event.Fault:
			if e.Err == nil {
				t.Error("Fault event without Err")
			}
			faults.Add(1)
		}
		return e.Param
	}))
	pool := NewPool(clock.System, 1, 0)
	defer pool.Close()
	root := NewRoot(pool, reg, nil)
	root.SetFaults(FaultConfig{Retry: RetryPolicy{MaxAttempts: 2}})
	_, err := root.Start(skel.NewSeq(flaky(5)), 1).GetContext(testCtx(t))
	if err == nil {
		t.Fatal("want terminal failure")
	}
	if retries.Load() != 1 || faults.Load() != 1 {
		t.Fatalf("saw %d retry, %d fault events, want 1 and 1", retries.Load(), faults.Load())
	}
}

func TestMuscleTimeout(t *testing.T) {
	blocked := make(chan struct{})
	defer close(blocked)
	hang := muscle.NewExecute("hang", func(p any) (any, error) {
		<-blocked
		return p, nil
	})
	root, _, err := runFaulty(t, skel.NewSeq(hang), 1, 1, FaultConfig{
		Timeout: 20 * time.Millisecond,
	})
	if !errors.Is(err, ErrMuscleTimeout) {
		t.Fatalf("want ErrMuscleTimeout, got %v", err)
	}
	var me *MuscleError
	if !errors.As(err, &me) {
		t.Fatalf("timeout not wrapped in MuscleError: %v", err)
	}
	if st := root.FaultStats(); st.Timeouts != 1 {
		t.Fatalf("timeouts = %d, want 1", st.Timeouts)
	}
}

// gridNode builds map(range, seq(fe), sum) where fe fails for even inputs
// and returns 1 for odd ones; run with param n for n branches.
func gridNode() *skel.Node {
	fe := muscle.NewExecute("one", func(p any) (any, error) {
		if p.(int)%2 == 0 {
			return nil, fmt.Errorf("branch %d down", p)
		}
		return 1, nil
	})
	return skel.NewMap(fsRange(), skel.NewSeq(fe), fmSum())
}

func TestPartialSkipFailed(t *testing.T) {
	root, res, err := runFaulty(t, gridNode(), 10, 4, FaultConfig{
		Partial: SkipFailed(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res != 5 { // branches 1,3,5,7,9 survive
		t.Fatalf("res = %v, want 5", res)
	}
	if st := root.FaultStats(); st.Skipped != 5 {
		t.Fatalf("skipped = %d, want 5", st.Skipped)
	}
	fe := root.Failures()
	if fe == nil || len(fe.Failures) != 5 {
		t.Fatalf("Failures() = %v, want 5 branch failures", fe)
	}
	for _, bf := range fe.Failures {
		if bf.Substituted {
			t.Fatalf("branch %d marked substituted under skip", bf.Branch)
		}
	}
}

func TestPartialSubstitute(t *testing.T) {
	root, res, err := runFaulty(t, gridNode(), 10, 4, FaultConfig{
		Partial: Substitute(100),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res != 505 { // 5 survivors ×1 + 5 substitutes ×100
		t.Fatalf("res = %v, want 505", res)
	}
	if st := root.FaultStats(); st.Substituted != 5 {
		t.Fatalf("substituted = %d, want 5", st.Substituted)
	}
}

func TestPartialFailFastDefault(t *testing.T) {
	_, _, err := runFaulty(t, gridNode(), 10, 4, FaultConfig{})
	var me *MuscleError
	if !errors.As(err, &me) {
		t.Fatalf("want MuscleError under fail-fast, got %v", err)
	}
}

func TestPartialAllBranchesFailed(t *testing.T) {
	fe := muscle.NewExecute("down", func(p any) (any, error) {
		return nil, errors.New("down")
	})
	nd := skel.NewMap(fsRange(), skel.NewSeq(fe), fmSum())
	_, _, err := runFaulty(t, nd, 4, 2, FaultConfig{Partial: SkipFailed()})
	var fail *FailureError
	if !errors.As(err, &fail) {
		t.Fatalf("want FailureError when every branch fails, got %v", err)
	}
	if len(fail.Failures) != 4 {
		t.Fatalf("aggregate has %d failures, want 4", len(fail.Failures))
	}
	if !strings.Contains(fail.Error(), "4 branch failure(s) (4 skipped, 0 substituted): ") {
		t.Fatalf("aggregate reads %q, want the counts and the first failure", fail.Error())
	}
}

// TestNestedMapInnerCollapseAbsorbedByOuter: when one inner map loses every
// branch under SkipFailed, its FailureError is itself absorbable one level
// up — the outer map merges around the collapsed chunk.
func TestNestedMapInnerCollapseAbsorbedByOuter(t *testing.T) {
	// Outer splits 9 → three chunks {0,3,6}; inner splits a chunk c into
	// leaves {c, c+1, c+2}. Every leaf of chunk 0 fails; all others yield 1.
	split := muscle.NewSplit("chunk3", func(p any) ([]any, error) {
		n := p.(int)
		if n == 9 {
			return []any{0, 3, 6}, nil
		}
		return []any{n, n + 1, n + 2}, nil
	})
	fe := muscle.NewExecute("firstChunkDown", func(p any) (any, error) {
		if p.(int) < 3 {
			return nil, errors.New("down")
		}
		return 1, nil
	})
	inner := skel.NewMap(split, skel.NewSeq(fe), fmSum())
	outer := skel.NewMap(split, inner, fmSum())
	root, res, err := runFaulty(t, outer, 9, 4, FaultConfig{Partial: SkipFailed()})
	if err != nil {
		t.Fatal(err)
	}
	if res != 6 { // chunks {3,4,5} and {6,7,8} survive, 3 leaves each
		t.Fatalf("res = %v, want 6", res)
	}
	// 3 leaves of chunk 0 skipped inside the inner map, then the collapsed
	// inner map itself skipped as an outer branch.
	if st := root.FaultStats(); st.Skipped != 4 {
		t.Fatalf("skipped = %d, want 4", st.Skipped)
	}
	fails := root.Failures()
	if fails == nil || len(fails.Failures) != 4 {
		t.Fatalf("Failures() = %v, want 4 records", fails)
	}
}

func TestBackoffVirtualClockAndJitterDeterminism(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	pool := NewPool(clk, 1, 0)
	defer pool.Close()
	root := NewRoot(pool, nil, clk)
	root.SetFaults(FaultConfig{Retry: RetryPolicy{
		MaxAttempts: 4, BaseDelay: 10 * time.Millisecond, Multiplier: 2, Seed: 99,
	}})
	start := clk.Now()
	res, err := root.Start(skel.NewSeq(flaky(3)), 1).GetContext(testCtx(t))
	if err != nil || res != 2 {
		t.Fatalf("got (%v, %v)", res, err)
	}
	// Backoff 10+20+40 ms advanced on the virtual clock, no real sleeping.
	if d := clk.Now().Sub(start); d != 70*time.Millisecond {
		t.Fatalf("virtual clock advanced %v, want 70ms", d)
	}

	// With jitter, two roots with the same seed advance identically.
	adv := func() time.Duration {
		c := clock.NewVirtual(time.Unix(0, 0))
		p := NewPool(c, 1, 0)
		defer p.Close()
		r := NewRoot(p, nil, c)
		r.SetFaults(FaultConfig{Retry: RetryPolicy{
			MaxAttempts: 4, BaseDelay: 10 * time.Millisecond, Jitter: 0.5, Seed: 7,
		}})
		t0 := c.Now()
		if _, err := r.Start(skel.NewSeq(flaky(3)), 1).GetContext(testCtx(t)); err != nil {
			t.Fatal(err)
		}
		return c.Now().Sub(t0)
	}
	if a, b := adv(), adv(); a != b || a == 70*time.Millisecond {
		t.Fatalf("jittered backoffs %v vs %v: want equal and != unjittered 70ms", a, b)
	}
}

// TestBackoffSourceSeededOnFirstUse: the jitter source is built by the first
// backoff that draws from it, not per root, and the sequence it yields is the
// one eager seeding in NewRoot/SetFaults gave — a function of Retry.Seed
// alone, with 0 meaning 1.
func TestBackoffSourceSeededOnFirstUse(t *testing.T) {
	pool := NewPool(clock.System, 1, 0)
	defer pool.Close()
	for _, seed := range []int64{0, 1, 7, 99} {
		pol := RetryPolicy{MaxAttempts: 8, BaseDelay: 10 * time.Millisecond, Multiplier: 2, Jitter: 0.5, Seed: seed}
		root := NewRoot(pool, nil, nil)
		root.SetFaults(FaultConfig{Retry: pol})
		if root.rng != nil {
			t.Fatal("jitter source seeded before any backoff")
		}
		eager := rand.New(rand.NewSource(max(seed, 1)))
		for attempt := 1; attempt <= 6; attempt++ {
			d := float64(pol.BaseDelay) * float64(int(1)<<(attempt-1))
			want := time.Duration(d * (1 + pol.Jitter*(2*eager.Float64()-1)))
			if got := root.backoff(attempt); got != want {
				t.Fatalf("seed %d attempt %d: backoff %v, want %v", seed, attempt, got, want)
			}
		}
	}
	// Without jitter nothing ever draws, so nothing is ever seeded.
	root := NewRoot(pool, nil, nil)
	root.SetFaults(FaultConfig{Retry: RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond}})
	if root.backoff(2); root.rng != nil {
		t.Fatal("unjittered backoff seeded a source")
	}
}

func TestBadOpFailsRootCleanly(t *testing.T) {
	in := badOpInst{op: plan.Op(255)}
	_, err := in.interpret(nil, nil)
	if err == nil {
		t.Fatal("badOpInst must return an error")
	}
}

func TestRetryCondition(t *testing.T) {
	var calls atomic.Int64
	cond := muscle.NewCondition("flap", func(p any) (bool, error) {
		if calls.Add(1) == 1 {
			return false, errors.New("transient")
		}
		return false, nil
	})
	nd := skel.NewWhile(cond, skel.NewSeq(feAdd(1)))
	root, res, err := runFaulty(t, nd, 5, 1, FaultConfig{Retry: RetryPolicy{MaxAttempts: 2}})
	if err != nil || res != 5 {
		t.Fatalf("got (%v, %v), want (5, nil)", res, err)
	}
	if st := root.FaultStats(); st.Retries != 1 {
		t.Fatalf("retries = %d, want 1", st.Retries)
	}
}

func TestRetrySplitAndMerge(t *testing.T) {
	var splitCalls, mergeCalls atomic.Int64
	fs := muscle.NewSplit("flakySplit", func(p any) ([]any, error) {
		if splitCalls.Add(1) == 1 {
			return nil, errors.New("transient split")
		}
		return []any{1, 2, 3}, nil
	})
	fm := muscle.NewMerge("flakyMerge", func(ps []any) (any, error) {
		if mergeCalls.Add(1) == 1 {
			return nil, errors.New("transient merge")
		}
		s := 0
		for _, p := range ps {
			s += p.(int)
		}
		return s, nil
	})
	nd := skel.NewMap(fs, skel.NewSeq(feDouble()), fm)
	root, res, err := runFaulty(t, nd, 0, 2, FaultConfig{Retry: RetryPolicy{MaxAttempts: 2}})
	if err != nil || res != 12 {
		t.Fatalf("got (%v, %v), want (12, nil)", res, err)
	}
	if st := root.FaultStats(); st.Retries != 2 {
		t.Fatalf("retries = %d, want 2 (split + merge)", st.Retries)
	}
}
