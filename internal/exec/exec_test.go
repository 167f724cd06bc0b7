package exec

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"skandium/internal/clock"
	"skandium/internal/event"
	"skandium/internal/muscle"
	"skandium/internal/skel"
)

// --- test muscles -----------------------------------------------------------

func feAdd(n int) *muscle.Muscle {
	return muscle.NewExecute(fmt.Sprintf("add%d", n), func(p any) (any, error) {
		return p.(int) + n, nil
	})
}

func feDouble() *muscle.Muscle {
	return muscle.NewExecute("double", func(p any) (any, error) { return p.(int) * 2, nil })
}

// fsHalves splits an int interval length into per-unit work items.
func fsRange() *muscle.Muscle {
	return muscle.NewSplit("range", func(p any) ([]any, error) {
		n := p.(int)
		out := make([]any, n)
		for i := 0; i < n; i++ {
			out[i] = i
		}
		return out, nil
	})
}

func fmSum() *muscle.Muscle {
	return muscle.NewMerge("sum", func(ps []any) (any, error) {
		s := 0
		for _, p := range ps {
			s += p.(int)
		}
		return s, nil
	})
}

func run(t *testing.T, nd *skel.Node, param any, lp int) (any, error) {
	t.Helper()
	pool := NewPool(clock.System, lp, 0)
	defer pool.Close()
	root := NewRoot(pool, nil, nil)
	res, err := root.Start(nd, param).GetContext(testCtx(t))
	return res, err
}

// testCtx bounds a future wait at 30 s; the context is released when the
// test ends.
func testCtx(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// --- functional correctness -------------------------------------------------

func TestSeq(t *testing.T) {
	res, err := run(t, skel.NewSeq(feAdd(5)), 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res != 15 {
		t.Fatalf("got %v, want 15", res)
	}
}

func TestPipe(t *testing.T) {
	nd := skel.NewPipe(skel.NewSeq(feAdd(1)), skel.NewSeq(feDouble()), skel.NewSeq(feAdd(3)))
	res, err := run(t, nd, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res != 13 { // (4+1)*2+3
		t.Fatalf("got %v, want 13", res)
	}
}

func TestFarm(t *testing.T) {
	res, err := run(t, skel.NewFarm(skel.NewSeq(feDouble())), 21, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res != 42 {
		t.Fatalf("got %v, want 42", res)
	}
}

func TestMapSumAllLPs(t *testing.T) {
	nd := skel.NewMap(fsRange(), skel.NewSeq(feDouble()), fmSum())
	// sum(2*i for i<10) = 90
	for lp := 1; lp <= 4; lp++ {
		res, err := run(t, nd, 10, lp)
		if err != nil {
			t.Fatalf("lp=%d: %v", lp, err)
		}
		if res != 90 {
			t.Fatalf("lp=%d: got %v, want 90", lp, res)
		}
	}
}

func TestMapEmptySplit(t *testing.T) {
	nd := skel.NewMap(fsRange(), skel.NewSeq(feDouble()), fmSum())
	res, err := run(t, nd, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res != 0 {
		t.Fatalf("got %v, want 0", res)
	}
}

func TestNestedMap(t *testing.T) {
	// map(range, map(range, seq(double), sum), sum) over 4:
	// inner(i) = sum(2j for j<i) = i*(i-1); total = sum_{i<4} i(i-1) = 0+0+2+6 = 8
	inner := skel.NewMap(fsRange(), skel.NewSeq(feDouble()), fmSum())
	outer := skel.NewMap(fsRange(), inner, fmSum())
	for lp := 1; lp <= 3; lp++ {
		res, err := run(t, outer, 4, lp)
		if err != nil {
			t.Fatalf("lp=%d: %v", lp, err)
		}
		if res != 8 {
			t.Fatalf("lp=%d: got %v, want 8", lp, res)
		}
	}
}

func TestWhile(t *testing.T) {
	fc := muscle.NewCondition("lt100", func(p any) (bool, error) { return p.(int) < 100, nil })
	nd := skel.NewWhile(fc, skel.NewSeq(feDouble()))
	res, err := run(t, nd, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res != 192 { // 3,6,12,24,48,96,192
		t.Fatalf("got %v, want 192", res)
	}
}

func TestWhileZeroIterations(t *testing.T) {
	fc := muscle.NewCondition("never", func(p any) (bool, error) { return false, nil })
	res, err := run(t, skel.NewWhile(fc, skel.NewSeq(feDouble())), 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res != 7 {
		t.Fatalf("got %v, want 7", res)
	}
}

func TestFor(t *testing.T) {
	res, err := run(t, skel.NewFor(5, skel.NewSeq(feAdd(3))), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res != 15 {
		t.Fatalf("got %v, want 15", res)
	}
}

func TestIfBranches(t *testing.T) {
	fc := muscle.NewCondition("pos", func(p any) (bool, error) { return p.(int) > 0, nil })
	nd := skel.NewIf(fc, skel.NewSeq(feAdd(100)), skel.NewSeq(feAdd(-100)))
	res, err := run(t, nd, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res != 101 {
		t.Fatalf("true branch: got %v, want 101", res)
	}
	res, err = run(t, nd, -1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res != -101 {
		t.Fatalf("false branch: got %v, want -101", res)
	}
}

func TestFork(t *testing.T) {
	fs := muscle.NewSplit("dup", func(p any) ([]any, error) { return []any{p, p}, nil })
	nd := skel.NewFork(fs, []*skel.Node{skel.NewSeq(feAdd(1)), skel.NewSeq(feDouble())}, fmSum())
	res, err := run(t, nd, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res != 31 { // (10+1) + (10*2)
		t.Fatalf("got %v, want 31", res)
	}
}

func TestForkCardinalityMismatch(t *testing.T) {
	fs := muscle.NewSplit("three", func(p any) ([]any, error) { return []any{1, 2, 3}, nil })
	nd := skel.NewFork(fs, []*skel.Node{skel.NewSeq(feAdd(1)), skel.NewSeq(feAdd(2))}, fmSum())
	_, err := run(t, nd, 0, 2)
	if err == nil || !strings.Contains(err.Error(), "fork split produced 3") {
		t.Fatalf("want cardinality error, got %v", err)
	}
}

// mergesort via d&c over []int payloads.
func TestDaCMergesort(t *testing.T) {
	fc := muscle.NewCondition("big", func(p any) (bool, error) { return len(p.([]int)) > 3, nil })
	fs := muscle.NewSplit("halve", func(p any) ([]any, error) {
		s := p.([]int)
		mid := len(s) / 2
		return []any{append([]int(nil), s[:mid]...), append([]int(nil), s[mid:]...)}, nil
	})
	fe := muscle.NewExecute("sortLeaf", func(p any) (any, error) {
		s := append([]int(nil), p.([]int)...)
		sort.Ints(s)
		return s, nil
	})
	fm := muscle.NewMerge("mergeSorted", func(ps []any) (any, error) {
		a, b := ps[0].([]int), ps[1].([]int)
		out := make([]int, 0, len(a)+len(b))
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			if a[i] <= b[j] {
				out = append(out, a[i])
				i++
			} else {
				out = append(out, b[j])
				j++
			}
		}
		out = append(out, a[i:]...)
		out = append(out, b[j:]...)
		return out, nil
	})
	nd := skel.NewDaC(fc, fs, skel.NewSeq(fe), fm)
	input := []int{9, 1, 8, 2, 7, 3, 6, 4, 5, 0, 11, 10}
	for lp := 1; lp <= 4; lp++ {
		res, err := run(t, nd, append([]int(nil), input...), lp)
		if err != nil {
			t.Fatalf("lp=%d: %v", lp, err)
		}
		got := res.([]int)
		if !sort.IntsAreSorted(got) || len(got) != len(input) {
			t.Fatalf("lp=%d: not sorted: %v", lp, got)
		}
	}
}

// --- error handling ---------------------------------------------------------

func TestMuscleErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	fe := muscle.NewExecute("boom", func(p any) (any, error) { return nil, boom })
	nd := skel.NewMap(fsRange(), skel.NewSeq(fe), fmSum())
	_, err := run(t, nd, 4, 2)
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	var me *MuscleError
	if !errors.As(err, &me) {
		t.Fatalf("want *MuscleError, got %T", err)
	}
	if me.Muscle != fe {
		t.Fatalf("error attributes wrong muscle: %v", me.Muscle)
	}
}

func TestMusclePanicBecomesError(t *testing.T) {
	fe := muscle.NewExecute("panics", func(p any) (any, error) { panic("kaboom") })
	_, err := run(t, skel.NewSeq(fe), 1, 1)
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("want panic error, got %v", err)
	}
}

func TestCancel(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	fe := muscle.NewExecute("slow", func(p any) (any, error) {
		close(started)
		<-release
		return p, nil
	})
	pool := NewPool(clock.System, 1, 0)
	defer pool.Close()
	root := NewRoot(pool, nil, nil)
	fut := root.Start(skel.NewFor(3, skel.NewSeq(fe)), 0)
	<-started
	abort := errors.New("abort")
	root.Cancel(abort)
	close(release)
	if _, err := fut.Get(); !errors.Is(err, abort) {
		t.Fatalf("want abort, got %v", err)
	}
}

// TestPoolWaitOutlastsRunningMuscle: Close leaves a running muscle running,
// and Wait returns only after it has finished and been counted.
func TestPoolWaitOutlastsRunningMuscle(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	fe := muscle.NewExecute("slow", func(p any) (any, error) {
		close(started)
		<-release
		return p, nil
	})
	pool := NewPool(clock.System, 2, 0)
	root := NewRoot(pool, nil, nil)
	fut := root.Start(skel.NewSeq(fe), 0)
	<-started
	root.Cancel(errors.New("abort"))
	pool.Close()
	<-fut.Done()
	ran := pool.Stats().TasksRun
	waited := make(chan struct{})
	go func() {
		pool.Wait()
		close(waited)
	}()
	select {
	case <-waited:
		t.Fatal("Wait returned while a muscle was still running")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-waited
	if got := pool.Stats().TasksRun; got != ran+1 {
		t.Fatalf("after Wait, tasks run = %d, want %d", got, ran+1)
	}
}

func TestInvalidSkeletonFailsFast(t *testing.T) {
	// Hand-build an invalid node via zero value semantics is impossible from
	// outside skel; instead check Validate wiring with a valid tree.
	nd := skel.NewSeq(feAdd(1))
	if err := nd.Validate(); err != nil {
		t.Fatalf("valid tree rejected: %v", err)
	}
}

// --- events -----------------------------------------------------------------

type recEvent struct {
	kind  skel.Kind
	when  event.When
	where event.Where
	idx   int64
}

func collectEvents(t *testing.T, nd *skel.Node, param any, lp int) ([]recEvent, any) {
	t.Helper()
	pool := NewPool(clock.System, lp, 0)
	defer pool.Close()
	reg := event.NewRegistry()
	var mu sync.Mutex
	var evs []recEvent
	reg.Add(event.Func(func(e *event.Event) any {
		mu.Lock()
		evs = append(evs, recEvent{e.Node.Kind(), e.When, e.Where, e.Index})
		mu.Unlock()
		return e.Param
	}))
	root := NewRoot(pool, reg, nil)
	res, err := root.Start(nd, param).Get()
	if err != nil {
		t.Fatal(err)
	}
	return evs, res
}

func TestSeqEvents(t *testing.T) {
	evs, _ := collectEvents(t, skel.NewSeq(feAdd(1)), 0, 1)
	want := []recEvent{
		{skel.Seq, event.Before, event.Skeleton, 0},
		{skel.Seq, event.After, event.Skeleton, 0},
	}
	if len(evs) != len(want) {
		t.Fatalf("got %d events %v, want %d", len(evs), evs, len(want))
	}
	for i := range want {
		if evs[i] != want[i] {
			t.Fatalf("event %d: got %+v, want %+v", i, evs[i], want[i])
		}
	}
}

func TestMapEventProtocol(t *testing.T) {
	nd := skel.NewMap(fsRange(), skel.NewSeq(feDouble()), fmSum())
	evs, _ := collectEvents(t, nd, 3, 1)
	// The paper's eight map events (nested ones appear per branch), plus the
	// nested seq's own before/after pairs.
	var mapEvents []recEvent
	for _, e := range evs {
		if e.kind == skel.Map {
			mapEvents = append(mapEvents, e)
		}
	}
	counts := map[string]int{}
	for _, e := range mapEvents {
		counts[fmt.Sprintf("%v/%v", e.when, e.where)]++
	}
	wantCounts := map[string]int{
		"before/skeleton": 1,
		"before/split":    1,
		"after/split":     1,
		"before/nested":   3,
		"after/nested":    3,
		"before/merge":    1,
		"after/merge":     1,
		"after/skeleton":  1,
	}
	for k, v := range wantCounts {
		if counts[k] != v {
			t.Fatalf("map event %s: got %d, want %d (events: %v)", k, counts[k], v, counts)
		}
	}
	// All map events of this single activation share one index.
	idx := mapEvents[0].idx
	for _, e := range mapEvents {
		if e.idx != idx {
			t.Fatalf("map events use several indices: %v", mapEvents)
		}
	}
}

func TestEventOrderSeqInsideMapBranch(t *testing.T) {
	nd := skel.NewMap(fsRange(), skel.NewSeq(feDouble()), fmSum())
	evs, _ := collectEvents(t, nd, 2, 1) // LP=1 makes ordering deterministic
	// For each branch: nested-before then seq-before then seq-after then
	// nested-after, in that order.
	var seqSeen, nestedOpen int
	for _, e := range evs {
		switch {
		case e.kind == skel.Map && e.where == event.NestedSkel && e.when == event.Before:
			nestedOpen++
		case e.kind == skel.Map && e.where == event.NestedSkel && e.when == event.After:
			nestedOpen--
			if nestedOpen < 0 {
				t.Fatal("nested-after without matching before")
			}
		case e.kind == skel.Seq:
			if nestedOpen == 0 {
				t.Fatal("seq event outside nested bracket")
			}
			seqSeen++
		}
	}
	if seqSeen != 4 {
		t.Fatalf("want 4 seq events, got %d", seqSeen)
	}
}

func TestListenerReplacesParam(t *testing.T) {
	pool := NewPool(clock.System, 1, 0)
	defer pool.Close()
	reg := event.NewRegistry()
	// Triple the value right before the execute muscle runs.
	reg.AddFiltered(event.Func(func(e *event.Event) any {
		return e.Param.(int) * 3
	}), event.Filter{Kind: skel.Seq, HasKind: true, When: event.Before, HasWhen: true})
	root := NewRoot(pool, reg, nil)
	res, err := root.Start(skel.NewSeq(feAdd(1)), 10).Get()
	if err != nil {
		t.Fatal(err)
	}
	if res != 31 {
		t.Fatalf("got %v, want 31", res)
	}
}

func TestParentIndexLinksActivations(t *testing.T) {
	nd := skel.NewMap(fsRange(), skel.NewSeq(feDouble()), fmSum())
	pool := NewPool(clock.System, 1, 0)
	defer pool.Close()
	reg := event.NewRegistry()
	var mu sync.Mutex
	parentOf := map[int64]int64{}
	kinds := map[int64]skel.Kind{}
	reg.Add(event.Func(func(e *event.Event) any {
		mu.Lock()
		parentOf[e.Index] = e.Parent
		kinds[e.Index] = e.Node.Kind()
		mu.Unlock()
		return e.Param
	}))
	root := NewRoot(pool, reg, nil)
	if _, err := root.Start(nd, 3).Get(); err != nil {
		t.Fatal(err)
	}
	var mapIdx int64 = -1
	for idx, k := range kinds {
		if k == skel.Map {
			mapIdx = idx
		}
	}
	if mapIdx < 0 {
		t.Fatal("no map activation recorded")
	}
	if parentOf[mapIdx] != event.NoParent {
		t.Fatalf("map parent = %d, want NoParent", parentOf[mapIdx])
	}
	seqs := 0
	for idx, k := range kinds {
		if k == skel.Seq {
			seqs++
			if parentOf[idx] != mapIdx {
				t.Fatalf("seq activation %d has parent %d, want %d", idx, parentOf[idx], mapIdx)
			}
		}
	}
	if seqs != 3 {
		t.Fatalf("want 3 seq activations, got %d", seqs)
	}
}

// --- pool behaviour ---------------------------------------------------------

func TestPoolLPLimitsConcurrency(t *testing.T) {
	const n, lp = 12, 3
	var mu sync.Mutex
	cur, peak := 0, 0
	fe := muscle.NewExecute("track", func(p any) (any, error) {
		mu.Lock()
		cur++
		if cur > peak {
			peak = cur
		}
		mu.Unlock()
		time.Sleep(5 * time.Millisecond)
		mu.Lock()
		cur--
		mu.Unlock()
		return p, nil
	})
	nd := skel.NewMap(fsRange(), skel.NewSeq(fe), fmSum())
	pool := NewPool(clock.System, lp, 0)
	defer pool.Close()
	root := NewRoot(pool, nil, nil)
	if _, err := root.Start(nd, n).Get(); err != nil {
		t.Fatal(err)
	}
	if peak > lp {
		t.Fatalf("peak concurrency %d exceeds LP %d", peak, lp)
	}
}

func TestPoolSetLPRaisesConcurrency(t *testing.T) {
	const n = 8
	var mu sync.Mutex
	cur, peak := 0, 0
	block := make(chan struct{})
	var once sync.Once
	fe := muscle.NewExecute("track", func(p any) (any, error) {
		mu.Lock()
		cur++
		if cur > peak {
			peak = cur
		}
		mu.Unlock()
		once.Do(func() { close(block) })
		time.Sleep(10 * time.Millisecond)
		mu.Lock()
		cur--
		mu.Unlock()
		return p, nil
	})
	nd := skel.NewMap(fsRange(), skel.NewSeq(fe), fmSum())
	pool := NewPool(clock.System, 1, 0)
	defer pool.Close()
	root := NewRoot(pool, nil, nil)
	fut := root.Start(nd, n)
	<-block
	pool.SetLP(4)
	if _, err := fut.Get(); err != nil {
		t.Fatal(err)
	}
	if peak < 2 {
		t.Fatalf("raising LP had no effect: peak=%d", peak)
	}
	if peak > 4 {
		t.Fatalf("peak %d exceeds raised LP 4", peak)
	}
}

func TestPoolSetLPClamps(t *testing.T) {
	pool := NewPool(clock.System, 2, 4)
	defer pool.Close()
	pool.SetLP(100)
	if lp := pool.LP(); lp != 4 {
		t.Fatalf("LP=%d, want clamp to 4", lp)
	}
	pool.SetLP(0)
	if lp := pool.LP(); lp != 1 {
		t.Fatalf("LP=%d, want clamp to 1", lp)
	}
}

func TestPoolGaugeObservesTransitions(t *testing.T) {
	var mu sync.Mutex
	samples := 0
	maxActive := 0
	pool := NewPool(clock.System, 2, 0)
	defer pool.Close()
	pool.SetGauge(func(_ time.Time, active, lp int) {
		mu.Lock()
		samples++
		if active > maxActive {
			maxActive = active
		}
		if lp != 2 {
			t.Errorf("gauge lp=%d, want 2", lp)
		}
		mu.Unlock()
	})
	nd := skel.NewMap(fsRange(), skel.NewSeq(feDouble()), fmSum())
	root := NewRoot(pool, nil, nil)
	if _, err := root.Start(nd, 6).Get(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if samples == 0 {
		t.Fatal("gauge never called")
	}
	if maxActive < 1 {
		t.Fatal("gauge never saw an active worker")
	}
}

func TestManyRootsShareOnePool(t *testing.T) {
	pool := NewPool(clock.System, 4, 0)
	defer pool.Close()
	nd := skel.NewMap(fsRange(), skel.NewSeq(feDouble()), fmSum())
	futs := make([]*Future, 20)
	for i := range futs {
		futs[i] = NewRoot(pool, nil, nil).Start(nd, 10)
	}
	for i, f := range futs {
		res, err := f.Get()
		if err != nil {
			t.Fatalf("root %d: %v", i, err)
		}
		if res != 90 {
			t.Fatalf("root %d: got %v, want 90", i, res)
		}
	}
}
