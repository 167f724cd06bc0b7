package skandium

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// --- typed API basics ---------------------------------------------------------

func intRange() Split[int, int] {
	return NewSplit("range", func(n int) ([]int, error) {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out, nil
	})
}

func intSum() Merge[int, int] {
	return NewMerge("sum", func(ps []int) (int, error) {
		s := 0
		for _, p := range ps {
			s += p
		}
		return s, nil
	})
}

func TestSeqTyped(t *testing.T) {
	double := NewExec("double", func(n int) (int, error) { return 2 * n, nil })
	st := NewStream[int, int](Seq(double), WithLP(2))
	defer st.Close()
	res, err := st.Do(21)
	if err != nil {
		t.Fatal(err)
	}
	if res != 42 {
		t.Fatalf("got %d, want 42", res)
	}
}

func TestMapTyped(t *testing.T) {
	double := NewExec("double", func(n int) (int, error) { return 2 * n, nil })
	prog := Map(intRange(), Seq(double), intSum())
	st := NewStream[int, int](prog, WithLP(4))
	defer st.Close()
	res, err := st.Do(10)
	if err != nil {
		t.Fatal(err)
	}
	if res != 90 {
		t.Fatalf("got %d, want 90", res)
	}
}

func TestPipeTypeChange(t *testing.T) {
	itoa := NewExec("itoa", func(n int) (string, error) { return strings.Repeat("x", n), nil })
	length := NewExec("len", func(s string) (int, error) { return len(s), nil })
	prog := Pipe(Seq(itoa), Seq(length))
	st := NewStream[int, int](prog)
	defer st.Close()
	res, err := st.Do(7)
	if err != nil {
		t.Fatal(err)
	}
	if res != 7 {
		t.Fatalf("got %d, want 7", res)
	}
}

func TestPipe3AndPipeN(t *testing.T) {
	inc := NewExec("inc", func(n int) (int, error) { return n + 1, nil })
	st := NewStream[int, int](Pipe3(Seq(inc), Seq(inc), Seq(inc)))
	defer st.Close()
	if res, _ := st.Do(0); res != 3 {
		t.Fatalf("pipe3: got %v, want 3", res)
	}
	st2 := NewStream[int, int](PipeN(Seq(inc), Seq(inc), Seq(inc), Seq(inc)))
	defer st2.Close()
	if res, _ := st2.Do(0); res != 4 {
		t.Fatalf("pipeN: got %v, want 4", res)
	}
}

func TestWhileForIfTyped(t *testing.T) {
	lt := NewCond("lt100", func(n int) (bool, error) { return n < 100, nil })
	double := NewExec("double", func(n int) (int, error) { return 2 * n, nil })
	st := NewStream[int, int](While(lt, Seq(double)))
	defer st.Close()
	if res, _ := st.Do(3); res != 192 {
		t.Fatalf("while: got %v, want 192", res)
	}

	st2 := NewStream[int, int](For(5, Seq(double)))
	defer st2.Close()
	if res, _ := st2.Do(1); res != 32 {
		t.Fatalf("for: got %v, want 32", res)
	}

	pos := NewCond("pos", func(n int) (bool, error) { return n > 0, nil })
	neg := NewExec("neg", func(n int) (int, error) { return -n, nil })
	id := NewExec("id", func(n int) (int, error) { return n, nil })
	st3 := NewStream[int, int](If(pos, Seq(neg), Seq(id)))
	defer st3.Close()
	if res, _ := st3.Do(5); res != -5 {
		t.Fatalf("if-true: got %v, want -5", res)
	}
	if res, _ := st3.Do(-5); res != -5 {
		t.Fatalf("if-false: got %v, want -5", res)
	}
}

func TestDaCTyped(t *testing.T) {
	big := NewCond("big", func(s []int) (bool, error) { return len(s) > 2, nil })
	halve := NewSplit("halve", func(s []int) ([][]int, error) {
		mid := len(s) / 2
		return [][]int{append([]int(nil), s[:mid]...), append([]int(nil), s[mid:]...)}, nil
	})
	leafSum := NewExec("leafSum", func(s []int) (int, error) {
		total := 0
		for _, v := range s {
			total += v
		}
		return total, nil
	})
	add := NewMerge("add", func(ps []int) (int, error) {
		total := 0
		for _, v := range ps {
			total += v
		}
		return total, nil
	})
	prog := DaC(big, halve, Seq(leafSum), add)
	st := NewStream[[]int, int](prog, WithLP(3))
	defer st.Close()
	res, err := st.Do([]int{1, 2, 3, 4, 5, 6, 7, 8, 9})
	if err != nil {
		t.Fatal(err)
	}
	if res != 45 {
		t.Fatalf("got %v, want 45", res)
	}
}

func TestForkTyped(t *testing.T) {
	dup := NewSplit("dup", func(n int) ([]int, error) { return []int{n, n}, nil })
	inc := NewExec("inc", func(n int) (int, error) { return n + 1, nil })
	dbl := NewExec("dbl", func(n int) (int, error) { return n * 2, nil })
	prog := Fork(dup, []Skeleton[int, int]{Seq(inc), Seq(dbl)}, intSum())
	st := NewStream[int, int](prog)
	defer st.Close()
	if res, _ := st.Do(10); res != 31 {
		t.Fatalf("got %v, want 31", res)
	}
}

func TestSkeletonString(t *testing.T) {
	double := NewExec("fe", func(n int) (int, error) { return 2 * n, nil })
	fs, fm := intRange(), intSum()
	prog := Map(fs, Seq(double), fm)
	want := "map(range, seq(fe), sum)"
	if got := prog.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// --- error handling -----------------------------------------------------------

func TestTypedMuscleError(t *testing.T) {
	boom := errors.New("boom")
	bad := NewExec("bad", func(n int) (int, error) { return 0, boom })
	st := NewStream[int, int](Seq(bad))
	defer st.Close()
	_, err := st.Do(1)
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
}

func TestListenerTypeMismatchSurfacesAsError(t *testing.T) {
	double := NewExec("double", func(n int) (int, error) { return 2 * n, nil })
	st := NewStream[int, int](Seq(double),
		WithListener(ListenerFunc(func(e *Event) any { return "not an int" }),
			Filter{When: Before, HasWhen: true}))
	defer st.Close()
	_, err := st.Do(1)
	if err == nil || !strings.Contains(err.Error(), `muscle "double" received string`) {
		t.Fatalf("want type mismatch error, got %v", err)
	}
}

func TestCancelExecution(t *testing.T) {
	started := make(chan struct{})
	var once sync.Once
	slow := NewExec("slow", func(n int) (int, error) {
		once.Do(func() { close(started) })
		time.Sleep(5 * time.Millisecond)
		return n, nil
	})
	st := NewStream[int, int](For(100, Seq(slow)), WithLP(1))
	defer st.Close()
	ex := st.Input(1)
	<-started
	abort := errors.New("abort")
	ex.Cancel(abort)
	if _, err := ex.Get(); !errors.Is(err, abort) {
		t.Fatalf("want abort, got %v", err)
	}
}

func TestGetContext(t *testing.T) {
	slow := NewExec("slow", func(n int) (int, error) {
		time.Sleep(50 * time.Millisecond)
		return n, nil
	})
	st := NewStream[int, int](Seq(slow))
	defer st.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err := st.Input(1).GetContext(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline, got %v", err)
	}
}

// --- events through the public API ---------------------------------------------

func TestPublicListenerSeesEvents(t *testing.T) {
	double := NewExec("double", func(n int) (int, error) { return 2 * n, nil })
	prog := Map(intRange(), Seq(double), intSum())
	var count atomic.Int64
	var splitCard atomic.Int64
	st := NewStream[int, int](prog, WithLP(1),
		WithListener(ListenerFunc(func(e *Event) any {
			count.Add(1)
			if e.When == After && e.Where == AtSplit {
				splitCard.Store(int64(e.Card))
			}
			return e.Param
		})))
	defer st.Close()
	if _, err := st.Do(5); err != nil {
		t.Fatal(err)
	}
	if count.Load() == 0 {
		t.Fatal("no events delivered")
	}
	if splitCard.Load() != 5 {
		t.Fatalf("split cardinality %d, want 5", splitCard.Load())
	}
}

func TestFilteredListener(t *testing.T) {
	double := NewExec("double", func(n int) (int, error) { return 2 * n, nil })
	prog := Map(intRange(), Seq(double), intSum())
	var mergeEvents atomic.Int64
	st := NewStream[int, int](prog,
		WithListener(ListenerFunc(func(e *Event) any {
			mergeEvents.Add(1)
			if e.Where != AtMerge {
				t.Errorf("filter leaked %v event", e.Where)
			}
			return e.Param
		}), Filter{Where: AtMerge, HasWhere: true}))
	defer st.Close()
	if _, err := st.Do(4); err != nil {
		t.Fatal(err)
	}
	if mergeEvents.Load() != 2 { // before + after merge
		t.Fatalf("merge events = %d, want 2", mergeEvents.Load())
	}
}

// TestListenerTransformsPartialSolution implements the paper's use case of
// modifying partial solutions in a listener (e.g. encryption): double every
// split part before the nested skeleton sees it.
func TestListenerTransformsPartialSolution(t *testing.T) {
	id := NewExec("id", func(n int) (int, error) { return n, nil })
	prog := Map(intRange(), Seq(id), intSum())
	st := NewStream[int, int](prog,
		WithListener(ListenerFunc(func(e *Event) any {
			return e.Param.(int) * 10
		}), Filter{Kind: 0, HasKind: false, When: Before, HasWhen: true, Where: AtNestedSkel, HasWhere: true}))
	defer st.Close()
	res, err := st.Do(4) // sum(10*i) = 60
	if err != nil {
		t.Fatal(err)
	}
	if res != 60 {
		t.Fatalf("got %v, want 60", res)
	}
}

// --- history across inputs ------------------------------------------------------

func TestEstimatesPersistAcrossInputs(t *testing.T) {
	work := NewExec("work", func(n int) (int, error) {
		time.Sleep(2 * time.Millisecond)
		return n, nil
	})
	st := NewStream[int, int](Seq(work))
	defer st.Close()
	if _, err := st.Do(1); err != nil {
		t.Fatal(err)
	}
	d, ok := st.Estimates().Duration(work.Muscle().ID())
	if !ok {
		t.Fatal("no duration learned after first input")
	}
	if d < time.Millisecond {
		t.Fatalf("learned duration %v implausibly small", d)
	}
	prof := st.Profile()
	if len(prof) == 0 {
		t.Fatal("empty profile")
	}
	// A second stream over the same muscle handle can be pre-seeded.
	st2 := NewStream[int, int](Seq(work), WithProfile(prof))
	defer st2.Close()
	d2, ok := st2.Estimates().Duration(work.Muscle().ID())
	if !ok || d2 != d {
		t.Fatalf("profile not restored: %v/%v", d2, ok)
	}
}

// --- autonomic end-to-end on the real engine -------------------------------------

// TestAutonomicRealEngine runs the paper's program shape on real goroutines
// with sleep muscles: with a WCT goal the controller must raise LP and beat
// the sequential time.
func TestAutonomicRealEngine(t *testing.T) {
	fs := NewSplit("chunks", func(c int) ([]int, error) {
		out := make([]int, 4)
		for i := range out {
			out[i] = c
		}
		return out, nil
	})
	fe := NewExec("work", func(n int) (int, error) {
		time.Sleep(8 * time.Millisecond)
		return 1, nil
	})
	fm := NewMerge("fold", func(ps []int) (int, error) {
		s := 0
		for _, p := range ps {
			s += p
		}
		return s, nil
	})
	inner := Map(fs, Seq(fe), fm)
	outer := Map(fs, inner, fm)
	// Sequential: 16 sleeps of 8ms ≈ 128ms + overhead. Goal: 80ms.
	st := NewStream[int, int](outer,
		WithLP(1),
		WithMaxLP(16),
		WithWCTGoal(80*time.Millisecond))
	defer st.Close()
	start := time.Now()
	ex := st.Input(1)
	res, err := ex.Get()
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if res != 16 {
		t.Fatalf("result %v, want 16", res)
	}
	if len(ex.Decisions()) == 0 {
		t.Fatal("controller never adapted on the real engine")
	}
	raised := false
	for _, d := range ex.Decisions() {
		if d.NewLP > d.OldLP {
			raised = true
		}
	}
	if !raised {
		t.Fatalf("no LP increase: %v", ex.Decisions())
	}
	if elapsed > 125*time.Millisecond {
		t.Fatalf("autonomic run took %v, sequential would be ~128ms", elapsed)
	}
}

func TestManualSetLP(t *testing.T) {
	id := NewExec("id", func(n int) (int, error) { return n, nil })
	st := NewStream[int, int](Seq(id), WithLP(2), WithMaxLP(4))
	defer st.Close()
	if st.LP() != 2 {
		t.Fatalf("LP=%d, want 2", st.LP())
	}
	st.SetLP(10)
	if st.LP() != 4 {
		t.Fatalf("LP=%d, want clamp to 4", st.LP())
	}
	st.SetCap(3)
	if st.LP() != 3 || st.Cap() != 3 {
		t.Fatalf("LP=%d cap=%d, want both 3", st.LP(), st.Cap())
	}
}

func TestStreamStats(t *testing.T) {
	prog := Map(intRange(), Seq(NewExec("id", func(n int) (int, error) { return n, nil })), intSum())
	st := NewStream[int, int](prog, WithLP(2))
	defer st.Close()
	if _, err := st.Do(6); err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	if stats.TasksRun == 0 {
		t.Fatal("no tasks counted")
	}
	if stats.Spawned < 1 || stats.Spawned > 2 {
		t.Fatalf("spawned %d workers", stats.Spawned)
	}
}
