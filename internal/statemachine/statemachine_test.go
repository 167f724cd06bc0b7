package statemachine

import (
	"strings"
	"testing"
	"time"

	"skandium/internal/clock"
	"skandium/internal/estimate"
	"skandium/internal/event"
	"skandium/internal/exec"
	"skandium/internal/muscle"
	"skandium/internal/skel"
)

func u(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }

type world struct {
	tr  *Tracker
	est *estimate.Registry
}

func newWorld() *world {
	est := estimate.NewRegistry(estimate.DefaultRho)
	return &world{tr: NewTracker(est), est: est}
}

func (w *world) emit(nd *skel.Node, idx, parent int64, when event.When, where event.Where, ms int, mod func(*event.Event)) {
	e := &event.Event{
		Node: nd, Trace: []*skel.Node{nd}, Index: idx, Parent: parent,
		When: when, Where: where, Time: clock.Epoch.Add(u(ms)),
	}
	if mod != nil {
		mod(e)
	}
	w.tr.Listener().Handler(e)
}

// TestSeqStateMachine is the paper's Fig. 3: t(fe) updated on seq@a(i) with
// the elapsed time since seq@b(i).
func TestSeqStateMachine(t *testing.T) {
	w := newWorld()
	fe := muscle.NewExecute("fe", func(p any) (any, error) { return p, nil })
	nd := skel.NewSeq(fe)
	w.emit(nd, 0, event.NoParent, event.Before, event.Skeleton, 100, nil)
	w.emit(nd, 0, event.NoParent, event.After, event.Skeleton, 140, nil)
	d, ok := w.est.Duration(fe.ID())
	if !ok || d != u(40) {
		t.Fatalf("t(fe) = %v/%v, want 40ms", d, ok)
	}
	root := w.tr.Root()
	if root == nil || !root.Done || root.EndTime.Sub(root.StartTime) != u(40) {
		t.Fatalf("instance not closed correctly: %+v", root)
	}
	// Second activation: EWMA(0.5) blends 40 and 60 -> 50.
	w.emit(nd, 1, event.NoParent, event.Before, event.Skeleton, 200, nil)
	w.emit(nd, 1, event.NoParent, event.After, event.Skeleton, 260, nil)
	if d, _ := w.est.Duration(fe.ID()); d != u(50) {
		t.Fatalf("t(fe) after 2 runs = %v, want 50ms", d)
	}
}

// TestMapStateMachine is the paper's Fig. 4: t(fs) and |fs| on map@as,
// t(fm) on map@am, with children tracked in between.
func TestMapStateMachine(t *testing.T) {
	w := newWorld()
	fs := muscle.NewSplit("fs", func(p any) ([]any, error) { return nil, nil })
	fe := muscle.NewExecute("fe", func(p any) (any, error) { return p, nil })
	fm := muscle.NewMerge("fm", func(p []any) (any, error) { return nil, nil })
	nd := skel.NewMap(fs, skel.NewSeq(fe), fm)
	seq := nd.Children()[0]

	w.emit(nd, 0, event.NoParent, event.Before, event.Skeleton, 0, nil)
	w.emit(nd, 0, event.NoParent, event.Before, event.Split, 0, nil)
	w.emit(nd, 0, event.NoParent, event.After, event.Split, 10, func(e *event.Event) { e.Card = 2 })
	w.emit(seq, 1, 0, event.Before, event.Skeleton, 10, nil)
	w.emit(seq, 1, 0, event.After, event.Skeleton, 25, nil)
	w.emit(seq, 2, 0, event.Before, event.Skeleton, 25, nil)
	w.emit(seq, 2, 0, event.After, event.Skeleton, 40, nil)
	w.emit(nd, 0, event.NoParent, event.Before, event.Merge, 40, nil)
	w.emit(nd, 0, event.NoParent, event.After, event.Merge, 45, nil)
	w.emit(nd, 0, event.NoParent, event.After, event.Skeleton, 45, nil)

	if d, _ := w.est.Duration(fs.ID()); d != u(10) {
		t.Fatalf("t(fs) = %v", d)
	}
	if c, _ := w.est.Card(fs.ID()); c != 2 {
		t.Fatalf("|fs| = %v", c)
	}
	if d, _ := w.est.Duration(fm.ID()); d != u(5) {
		t.Fatalf("t(fm) = %v", d)
	}
	if d, _ := w.est.Duration(fe.ID()); d != u(15) {
		t.Fatalf("t(fe) = %v", d)
	}
	root := w.tr.Root()
	if root.ActualCard != 2 || len(root.Children) != 2 || !root.Done {
		t.Fatalf("map instance wrong: card=%d children=%d done=%v",
			root.ActualCard, len(root.Children), root.Done)
	}
	if !root.Split.Ended || root.Split.Duration() != u(10) {
		t.Fatalf("split record wrong: %+v", root.Split)
	}
	if !root.Merge.Ended || root.Merge.Duration() != u(5) {
		t.Fatalf("merge record wrong: %+v", root.Merge)
	}
}

// TestWhileCardinality: |fc| for while is the number of true verdicts.
func TestWhileCardinality(t *testing.T) {
	w := newWorld()
	fc := muscle.NewCondition("fc", func(p any) (bool, error) { return false, nil })
	fe := muscle.NewExecute("fe", func(p any) (any, error) { return p, nil })
	nd := skel.NewWhile(fc, skel.NewSeq(fe))
	w.emit(nd, 0, event.NoParent, event.Before, event.Skeleton, 0, nil)
	at := 0
	for iter := 0; iter < 3; iter++ { // three true verdicts
		w.emit(nd, 0, event.NoParent, event.Before, event.Condition, at, func(e *event.Event) { e.Iter = iter })
		at += 2
		w.emit(nd, 0, event.NoParent, event.After, event.Condition, at, func(e *event.Event) { e.Cond = true; e.Iter = iter })
		w.emit(nd.Children()[0], int64(iter+1), 0, event.Before, event.Skeleton, at, nil)
		at += 5
		w.emit(nd.Children()[0], int64(iter+1), 0, event.After, event.Skeleton, at, nil)
	}
	w.emit(nd, 0, event.NoParent, event.Before, event.Condition, at, func(e *event.Event) { e.Iter = 3 })
	at += 2
	w.emit(nd, 0, event.NoParent, event.After, event.Condition, at, func(e *event.Event) { e.Cond = false; e.Iter = 3 })
	w.emit(nd, 0, event.NoParent, event.After, event.Skeleton, at, nil)

	if c, ok := w.est.Card(fc.ID()); !ok || c != 3 {
		t.Fatalf("|fc| = %v/%v, want 3", c, ok)
	}
	if d, _ := w.est.Duration(fc.ID()); d != u(2) {
		t.Fatalf("t(fc) = %v, want 2ms", d)
	}
	root := w.tr.Root()
	if !root.CondClosed || root.TrueIters != 3 || len(root.Conds) != 4 {
		t.Fatalf("while instance: %+v", root)
	}
}

// TestDaCDepthCardinality: |fc| for d&c is the recursion depth at the
// false verdict.
func TestDaCDepthCardinality(t *testing.T) {
	w := newWorld()
	fc := muscle.NewCondition("fc", func(p any) (bool, error) { return false, nil })
	fs := muscle.NewSplit("fs", func(p any) ([]any, error) { return nil, nil })
	fe := muscle.NewExecute("fe", func(p any) (any, error) { return p, nil })
	fm := muscle.NewMerge("fm", func(p []any) (any, error) { return nil, nil })
	nd := skel.NewDaC(fc, fs, skel.NewSeq(fe), fm)
	// A depth-2 leaf activation.
	w.emit(nd, 5, 3, event.Before, event.Skeleton, 0, nil)
	w.emit(nd, 5, 3, event.Before, event.Condition, 0, func(e *event.Event) { e.Iter = 2 })
	w.emit(nd, 5, 3, event.After, event.Condition, 1, func(e *event.Event) { e.Cond = false; e.Iter = 2 })
	if c, ok := w.est.Card(fc.ID()); !ok || c != 2 {
		t.Fatalf("|fc| = %v/%v, want depth 2", c, ok)
	}
}

// TestBranchRecoveredFromNestedEvents: a child activation claims the branch
// announced by the preceding NestedSkel/Before on the same worker.
func TestBranchRecoveredFromNestedEvents(t *testing.T) {
	w := newWorld()
	fs := muscle.NewSplit("fs", func(p any) ([]any, error) { return nil, nil })
	fe := muscle.NewExecute("fe", func(p any) (any, error) { return p, nil })
	fm := muscle.NewMerge("fm", func(p []any) (any, error) { return nil, nil })
	nd := skel.NewMap(fs, skel.NewSeq(fe), fm)
	seq := nd.Children()[0]

	w.emit(nd, 0, event.NoParent, event.Before, event.Skeleton, 0, nil)
	w.emit(nd, 0, event.NoParent, event.Before, event.Split, 0, nil)
	w.emit(nd, 0, event.NoParent, event.After, event.Split, 1, func(e *event.Event) { e.Card = 2 })
	// Branch 1 starts first (out of order), on worker 3.
	w.emit(nd, 0, event.NoParent, event.Before, event.NestedSkel, 1, func(e *event.Event) { e.Branch = 1; e.Worker = 3 })
	w.emit(seq, 2, 0, event.Before, event.Skeleton, 1, func(e *event.Event) { e.Worker = 3 })
	if got := w.tr.Root().Children[0].Branch; got != 1 {
		t.Fatalf("child branch = %d, want 1", got)
	}
}

// TestErrEventsIgnored: events flagged with an error do not pollute the
// estimates.
func TestErrEventsIgnored(t *testing.T) {
	w := newWorld()
	fe := muscle.NewExecute("fe", func(p any) (any, error) { return p, nil })
	nd := skel.NewSeq(fe)
	w.emit(nd, 0, event.NoParent, event.Before, event.Skeleton, 0, nil)
	w.emit(nd, 0, event.NoParent, event.After, event.Skeleton, 99, func(e *event.Event) {
		e.Err = errFake
	})
	if _, ok := w.est.Duration(fe.ID()); ok {
		t.Fatal("failed muscle contributed a duration")
	}
}

var errFake = &exec.MuscleError{}

// TestDump renders the activation tree.
func TestDump(t *testing.T) {
	w := newWorld()
	fs := muscle.NewSplit("fs", func(p any) ([]any, error) { return nil, nil })
	fe := muscle.NewExecute("fe", func(p any) (any, error) { return p, nil })
	fm := muscle.NewMerge("fm", func(p []any) (any, error) { return nil, nil })
	nd := skel.NewMap(fs, skel.NewSeq(fe), fm)
	if got := w.tr.Dump(clock.Epoch, time.Millisecond); got != "(no activations)\n" {
		t.Fatalf("empty dump: %q", got)
	}
	w.emit(nd, 0, event.NoParent, event.Before, event.Skeleton, 0, nil)
	w.emit(nd, 0, event.NoParent, event.Before, event.Split, 0, nil)
	w.emit(nd, 0, event.NoParent, event.After, event.Split, 10, func(e *event.Event) { e.Card = 2 })
	w.emit(nd.Children()[0], 1, 0, event.Before, event.Skeleton, 10, nil)
	out := w.tr.Dump(clock.Epoch, time.Millisecond)
	for _, want := range []string{"map#0", "card=2", "split=0..10", "seq#1", "running"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump lacks %q:\n%s", want, out)
		}
	}
}

// TestTrackerDrivenByRealEngine wires a tracker to the real pool and checks
// estimates appear for every muscle of a nested program.
func TestTrackerDrivenByRealEngine(t *testing.T) {
	est := estimate.NewRegistry(estimate.DefaultRho)
	tr := NewTracker(est)
	reg := event.NewRegistry()
	reg.Add(tr.Listener())

	fs := muscle.NewSplit("fs", func(p any) ([]any, error) {
		return []any{1, 2, 3}, nil
	})
	fe := muscle.NewExecute("fe", func(p any) (any, error) {
		time.Sleep(time.Millisecond)
		return p, nil
	})
	fm := muscle.NewMerge("fm", func(ps []any) (any, error) { return len(ps), nil })
	nd := skel.NewMap(fs, skel.NewSeq(fe), fm)

	pool := exec.NewPool(clock.System, 2, 0)
	defer pool.Close()
	root := exec.NewRoot(pool, reg, nil)
	if _, err := root.Start(nd, 0).Get(); err != nil {
		t.Fatal(err)
	}
	for _, m := range []*muscle.Muscle{fs, fe, fm} {
		if _, ok := est.Duration(m.ID()); !ok {
			t.Errorf("no duration for %s", m)
		}
	}
	if c, ok := est.Card(fs.ID()); !ok || c != 3 {
		t.Fatalf("|fs| = %v/%v", c, ok)
	}
	if fed, _ := est.Duration(fe.ID()); fed < 500*time.Microsecond {
		t.Fatalf("t(fe) = %v implausibly small", fed)
	}
	if w := tr.InstanceCount(); w != 4 { // map + 3 seqs
		t.Fatalf("instances = %d, want 4", w)
	}
}

// TestRetryResetsStartWithoutDuplicating: a retried attempt re-raises
// seq@b(i) for the same index. The tracker must reset the instance's start
// time (so only the final attempt is timed) instead of opening a second
// instance, and the estimator must see the final attempt's duration only.
func TestRetryResetsStartWithoutDuplicating(t *testing.T) {
	w := newWorld()
	fe := muscle.NewExecute("fe", func(p any) (any, error) { return p, nil })
	nd := skel.NewSeq(fe)

	w.emit(nd, 0, event.NoParent, event.Before, event.Skeleton, 100, nil)
	// Attempt 1 fails at t=130 and is retried.
	w.emit(nd, 0, event.NoParent, event.After, event.Retry, 130, func(e *event.Event) {
		e.Err = exec.ErrMuscleTimeout
		e.Iter = 1
	})
	// Attempt 2 re-raises seq@b(i) at t=150 and succeeds at t=170.
	w.emit(nd, 0, event.NoParent, event.Before, event.Skeleton, 150, nil)
	w.emit(nd, 0, event.NoParent, event.After, event.Skeleton, 170, nil)

	w.tr.mu.Lock()
	n := len(w.tr.instances)
	w.tr.mu.Unlock()
	if n != 1 {
		t.Fatalf("tracker holds %d instances, want 1 (retry must not duplicate)", n)
	}
	root := w.tr.Root()
	if !root.Done || root.StartTime != clock.Epoch.Add(u(150)) {
		t.Fatalf("instance = done=%v start=%v, want done with start reset to t=150", root.Done, root.StartTime)
	}
	if d, ok := w.est.Duration(fe.ID()); !ok || d != u(20) {
		t.Fatalf("t(fe) = %v/%v, want 20ms (final attempt only)", d, ok)
	}
	if n := w.est.DurationObservations(fe.ID()); n != 1 {
		t.Fatalf("%d duration observations, want 1", n)
	}
}

// TestFaultClosesInstance: a terminal fault event marks the activation done
// so the predictor stops counting it as running work.
func TestFaultClosesInstance(t *testing.T) {
	w := newWorld()
	fe := muscle.NewExecute("fe", func(p any) (any, error) { return p, nil })
	nd := skel.NewSeq(fe)

	w.emit(nd, 0, event.NoParent, event.Before, event.Skeleton, 100, nil)
	w.emit(nd, 0, event.NoParent, event.After, event.Fault, 140, func(e *event.Event) {
		e.Err = exec.ErrMuscleTimeout
	})

	root := w.tr.Root()
	if root == nil || !root.Done || root.EndTime != clock.Epoch.Add(u(140)) {
		t.Fatalf("faulted instance not closed: %+v", root)
	}
	// The failed activation must not have fed the estimator.
	if _, ok := w.est.Duration(fe.ID()); ok {
		t.Fatal("faulted activation polluted the duration estimate")
	}
}

// TestEstimatorKeepsNoTree: an estimates-only tracker times a map's muscles
// like the full one — through a retried child and a faulted one — while an
// instance lives only from its Skeleton/Before to its After or Fault, is
// reused afterwards, and nothing is left once the root activation ends.
func TestEstimatorKeepsNoTree(t *testing.T) {
	est := estimate.NewRegistry(estimate.DefaultRho)
	w := &world{tr: NewEstimator(est), est: est}
	fe := muscle.NewExecute("fe", func(p any) (any, error) { return p, nil })
	fs := muscle.NewSplit("fs", func(p any) ([]any, error) { return nil, nil })
	fm := muscle.NewMerge("fm", func(ps []any) (any, error) { return nil, nil })
	sub := skel.NewSeq(fe)
	nd := skel.NewMap(fs, sub, fm)
	live := func() int { return w.tr.InstanceCount() }

	w.emit(nd, 0, event.NoParent, event.Before, event.Skeleton, 0, nil)
	w.emit(nd, 0, event.NoParent, event.Before, event.Split, 0, nil)
	w.emit(nd, 0, event.NoParent, event.After, event.Split, 10, func(e *event.Event) { e.Card = 3 })
	// Child 1: plain.
	w.emit(nd, 0, event.NoParent, event.Before, event.NestedSkel, 10, func(e *event.Event) { e.Branch = 0 })
	w.emit(sub, 1, 0, event.Before, event.Skeleton, 10, nil)
	if live() != 2 {
		t.Fatalf("%d live instances inside the first child, want 2", live())
	}
	w.emit(sub, 1, 0, event.After, event.Skeleton, 30, nil)
	first := w.tr.free[0]
	// Child 2: first attempt fails and is retried; only the second is timed.
	w.emit(sub, 2, 0, event.Before, event.Skeleton, 30, nil)
	if w.tr.instances[2] != first {
		t.Fatal("the finished child's instance was not reused")
	}
	w.emit(sub, 2, 0, event.After, event.Retry, 35, func(e *event.Event) { e.Err = exec.ErrMuscleTimeout })
	w.emit(sub, 2, 0, event.Before, event.Skeleton, 40, nil)
	w.emit(sub, 2, 0, event.After, event.Skeleton, 80, nil)
	// Child 3: fails terminally (a skip policy absorbs it); it must not stay.
	w.emit(sub, 3, 0, event.Before, event.Skeleton, 80, nil)
	w.emit(sub, 3, 0, event.After, event.Fault, 90, func(e *event.Event) { e.Err = exec.ErrMuscleTimeout })
	if live() != 1 {
		t.Fatalf("%d live instances after the children, want the map alone", live())
	}
	w.emit(nd, 0, event.NoParent, event.Before, event.Merge, 90, nil)
	w.emit(nd, 0, event.NoParent, event.After, event.Merge, 95, nil)
	w.emit(nd, 0, event.NoParent, event.After, event.Skeleton, 95, nil)

	if d, _ := est.Duration(fs.ID()); d != u(10) {
		t.Fatalf("t(fs) = %v, want 10ms", d)
	}
	if c, _ := est.Card(fs.ID()); c != 3 {
		t.Fatalf("|fs| = %v, want 3", c)
	}
	if d, _ := est.Duration(fe.ID()); d != u(30) { // EWMA(0.5) of 20 then 40
		t.Fatalf("t(fe) = %v, want 30ms", d)
	}
	if n := est.DurationObservations(fe.ID()); n != 2 {
		t.Fatalf("%d observations of fe, want 2 (not the failed attempts)", n)
	}
	if d, _ := est.Duration(fm.ID()); d != u(5) {
		t.Fatalf("t(fm) = %v, want 5ms", d)
	}
	if live() != 0 || w.tr.Root() != nil || w.tr.free != nil || len(w.tr.pendingBranch) != 0 {
		t.Fatalf("estimates-only tracker kept state: %d instances, root %v, %d free, %d pending",
			live(), w.tr.Root(), len(w.tr.free), len(w.tr.pendingBranch))
	}
}

// TestEstimatorIgnoresNestedEvents: an estimates-only tracker keeps no
// structural slots, so NestedSkel events leave its version and its instance
// table as they were, and it answers them without taking its lock.
func TestEstimatorIgnoresNestedEvents(t *testing.T) {
	est := estimate.NewRegistry(estimate.DefaultRho)
	w := &world{tr: NewEstimator(est), est: est}
	fe := muscle.NewExecute("fe", func(p any) (any, error) { return p, nil })
	fs := muscle.NewSplit("fs", func(p any) ([]any, error) { return nil, nil })
	fm := muscle.NewMerge("fm", func(ps []any) (any, error) { return nil, nil })
	nd := skel.NewMap(fs, skel.NewSeq(fe), fm)
	w.emit(nd, 0, event.NoParent, event.Before, event.Skeleton, 0, nil)
	w.emit(nd, 0, event.NoParent, event.Before, event.Split, 0, nil)
	w.emit(nd, 0, event.NoParent, event.After, event.Split, 10, func(e *event.Event) { e.Card = 2 })
	ver, in := w.tr.Version(), w.tr.instances[0]

	w.tr.mu.Lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for b := 0; b < 2; b++ {
			for _, when := range []event.When{event.Before, event.After} {
				w.emit(nd, 0, event.NoParent, when, event.NestedSkel, 10+b, func(e *event.Event) { e.Branch = b })
			}
		}
	}()
	select {
	case <-done:
		w.tr.mu.Unlock()
	case <-time.After(5 * time.Second):
		w.tr.mu.Unlock()
		<-done
		t.Fatal("a NestedSkel event waited for the estimator's lock")
	}

	if w.tr.Version() != ver {
		t.Fatalf("version %d after NestedSkel events, want %d", w.tr.Version(), ver)
	}
	if w.tr.InstanceCount() != 1 || w.tr.instances[0] != in || len(w.tr.pendingBranch) != 0 {
		t.Fatalf("instance table changed: %d instances, %d pending slots", w.tr.InstanceCount(), len(w.tr.pendingBranch))
	}
}

// TestReleaseDropsTreeAndIgnoresLateEvents: what a goal execution does to
// its tracker when its future resolves.
func TestReleaseDropsTreeAndIgnoresLateEvents(t *testing.T) {
	w := newWorld()
	fe := muscle.NewExecute("fe", func(p any) (any, error) { return p, nil })
	nd := skel.NewSeq(fe)
	w.emit(nd, 0, event.NoParent, event.Before, event.Skeleton, 0, nil)
	w.emit(nd, 0, event.NoParent, event.After, event.Skeleton, 20, nil)
	ver := w.tr.Version()

	w.tr.Release()
	if w.tr.InstanceCount() != 0 || w.tr.Root() != nil {
		t.Fatalf("released tracker holds %d instances, root %v", w.tr.InstanceCount(), w.tr.Root())
	}
	// A muscle that was still running when the execution was canceled.
	w.emit(nd, 1, event.NoParent, event.Before, event.Skeleton, 30, nil)
	w.emit(nd, 1, event.NoParent, event.After, event.Skeleton, 90, nil)
	w.emit(nd, 2, event.NoParent, event.After, event.Fault, 95, func(e *event.Event) { e.Err = exec.ErrMuscleTimeout })
	if w.tr.InstanceCount() != 0 || w.tr.Version() != ver {
		t.Fatal("a released tracker tracked a late event")
	}
	if d, _ := w.est.Duration(fe.ID()); d != u(20) {
		t.Fatalf("estimates moved after release: t(fe) %v", d)
	}
}
