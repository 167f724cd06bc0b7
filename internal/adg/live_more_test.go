package adg

import (
	"testing"
	"time"

	"skandium/internal/clock"
	"skandium/internal/estimate"
	"skandium/internal/event"
	"skandium/internal/muscle"
	"skandium/internal/skel"
	"skandium/internal/statemachine"
)

// emitter drives a tracker with hand-written histories for the less-common
// live paths.
type liveWorld struct {
	tr  *statemachine.Tracker
	est *estimate.Registry
}

func newLiveWorld() *liveWorld {
	est := estimate.NewRegistry(estimate.DefaultRho)
	return &liveWorld{tr: statemachine.NewTracker(est), est: est}
}

func (w *liveWorld) emit(nd *skel.Node, idx, parent int64, when event.When, where event.Where, ms int, mod func(*event.Event)) {
	e := &event.Event{
		Node: nd, Trace: []*skel.Node{nd}, Index: idx, Parent: parent,
		When: when, Where: where, Time: clock.Epoch.Add(u(ms)),
	}
	if mod != nil {
		mod(e)
	}
	w.tr.Listener().Handler(e)
}

func (w *liveWorld) graph(t *testing.T, nowMs int) *Graph {
	t.Helper()
	g, err := Builder{Est: w.est}.BuildLive(w.tr.Root(), clock.Epoch, clock.Epoch.Add(u(nowMs)))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestLiveFork: a running fork with one child done and one pending plans
// the pending branch from its own (distinct) sub-skeleton.
func TestLiveFork(t *testing.T) {
	w := newLiveWorld()
	fs := muscle.NewSplit("fs", func(p any) ([]any, error) { return nil, nil })
	feA := muscle.NewExecute("feA", func(p any) (any, error) { return p, nil })
	feB := muscle.NewExecute("feB", func(p any) (any, error) { return p, nil })
	fm := muscle.NewMerge("fm", func(p []any) (any, error) { return nil, nil })
	nd := skel.NewFork(fs, []*skel.Node{skel.NewSeq(feA), skel.NewSeq(feB)}, fm)
	w.est.InitDuration(fs.ID(), u(5))
	w.est.InitDuration(feA.ID(), u(10))
	w.est.InitDuration(feB.ID(), u(30))
	w.est.InitDuration(fm.ID(), u(2))

	w.emit(nd, 0, event.NoParent, event.Before, event.Skeleton, 0, nil)
	w.emit(nd, 0, event.NoParent, event.Before, event.Split, 0, nil)
	w.emit(nd, 0, event.NoParent, event.After, event.Split, 5, func(e *event.Event) { e.Card = 2 })
	// Branch 0 (feA) done; branch 1 (feB) has not activated.
	w.emit(nd, 0, event.NoParent, event.Before, event.NestedSkel, 5, func(e *event.Event) { e.Branch = 0 })
	seqA := nd.Children()[0]
	w.emit(seqA, 1, 0, event.Before, event.Skeleton, 5, nil)
	w.emit(seqA, 1, 0, event.After, event.Skeleton, 15, nil)

	g := w.graph(t, 20)
	g.ScheduleBestEffort()
	// Pending feB starts at now (its pred, the split, is history): 20+30,
	// then merge 2: WCT = 52.
	if wct := g.WCT(); wct != u(52) {
		t.Fatalf("WCT %v, want 52ms\n%s", wct, g.Render(time.Millisecond))
	}
	// The pending branch must cost feB's 30ms, not feA's 10ms.
	foundB := false
	for i, a := range g.Acts {
		if g.Muscle(i) == feB && a.State() == Pending && a.Dur == u(30) {
			foundB = true
		}
	}
	if !foundB {
		t.Fatalf("pending fork branch not planned from feB\n%s", g.Render(time.Millisecond))
	}
}

// TestLiveIfChosenBranch: once the verdict picked a branch, the plan uses
// that branch's actual child, not the worst case.
func TestLiveIfChosenBranch(t *testing.T) {
	w := newLiveWorld()
	fc := muscle.NewCondition("fc", func(p any) (bool, error) { return true, nil })
	feShort := muscle.NewExecute("short", func(p any) (any, error) { return p, nil })
	feLong := muscle.NewExecute("long", func(p any) (any, error) { return p, nil })
	nd := skel.NewIf(fc, skel.NewSeq(feShort), skel.NewSeq(feLong))
	w.est.InitDuration(fc.ID(), u(1))
	w.est.InitDuration(feShort.ID(), u(5))
	w.est.InitDuration(feLong.ID(), u(50))

	w.emit(nd, 0, event.NoParent, event.Before, event.Skeleton, 0, nil)
	w.emit(nd, 0, event.NoParent, event.Before, event.Condition, 0, nil)
	w.emit(nd, 0, event.NoParent, event.After, event.Condition, 1, func(e *event.Event) { e.Cond = true })
	// The true branch (short) activated and is running.
	w.emit(nd.Children()[0], 1, 0, event.Before, event.Skeleton, 1, nil)

	g := w.graph(t, 3)
	g.ScheduleBestEffort()
	// cond [0,1] + short running since 1 (est 5 -> ends 6): WCT 6, not 51.
	if wct := g.WCT(); wct != u(6) {
		t.Fatalf("WCT %v, want 6ms\n%s", wct, g.Render(time.Millisecond))
	}
}

// TestLiveIfUndecided: before the verdict, the worst-case branch is
// planned (the documented extension).
func TestLiveIfUndecided(t *testing.T) {
	w := newLiveWorld()
	fc := muscle.NewCondition("fc", func(p any) (bool, error) { return true, nil })
	feShort := muscle.NewExecute("short", func(p any) (any, error) { return p, nil })
	feLong := muscle.NewExecute("long", func(p any) (any, error) { return p, nil })
	nd := skel.NewIf(fc, skel.NewSeq(feShort), skel.NewSeq(feLong))
	w.est.InitDuration(fc.ID(), u(1))
	w.est.InitDuration(feShort.ID(), u(5))
	w.est.InitDuration(feLong.ID(), u(50))

	w.emit(nd, 0, event.NoParent, event.Before, event.Skeleton, 0, nil)
	w.emit(nd, 0, event.NoParent, event.Before, event.Condition, 0, nil)

	g := w.graph(t, 0)
	g.ScheduleBestEffort()
	// Running cond (est 1ms) + worst branch 50ms.
	if wct := g.WCT(); wct != u(51) {
		t.Fatalf("WCT %v, want 51ms\n%s", wct, g.Render(time.Millisecond))
	}
}

// TestLiveDaCLeaf: a d&c activation whose condition came back false plans
// only the leaf.
func TestLiveDaCLeaf(t *testing.T) {
	w := newLiveWorld()
	fc := muscle.NewCondition("fc", func(p any) (bool, error) { return false, nil })
	fs := muscle.NewSplit("fs", func(p any) ([]any, error) { return nil, nil })
	fe := muscle.NewExecute("fe", func(p any) (any, error) { return p, nil })
	fm := muscle.NewMerge("fm", func(p []any) (any, error) { return nil, nil })
	nd := skel.NewDaC(fc, fs, skel.NewSeq(fe), fm)
	w.est.InitDuration(fc.ID(), u(1))
	w.est.InitDuration(fs.ID(), u(5))
	w.est.InitDuration(fe.ID(), u(20))
	w.est.InitDuration(fm.ID(), u(3))
	w.est.InitCard(fc.ID(), 2)
	w.est.InitCard(fs.ID(), 2)

	w.emit(nd, 0, event.NoParent, event.Before, event.Skeleton, 0, nil)
	w.emit(nd, 0, event.NoParent, event.Before, event.Condition, 0, func(e *event.Event) { e.Iter = 0 })
	w.emit(nd, 0, event.NoParent, event.After, event.Condition, 1, func(e *event.Event) { e.Cond = false; e.Iter = 0 })

	g := w.graph(t, 2)
	g.ScheduleBestEffort()
	// cond [0,1], leaf pending 20ms from now=2: WCT 22. No split/merge.
	if wct := g.WCT(); wct != u(22) {
		t.Fatalf("WCT %v, want 22ms\n%s", wct, g.Render(time.Millisecond))
	}
	for i := range g.Acts {
		if m := g.Muscle(i); m == fs || m == fm {
			t.Fatalf("leaf-mode d&c planned split/merge\n%s", g.Render(time.Millisecond))
		}
	}
}

// TestLiveDaCRecursing: mid-recursion, known children are live and missing
// siblings are planned virtually one level deeper.
func TestLiveDaCRecursing(t *testing.T) {
	w := newLiveWorld()
	fc := muscle.NewCondition("fc", func(p any) (bool, error) { return false, nil })
	fs := muscle.NewSplit("fs", func(p any) ([]any, error) { return nil, nil })
	fe := muscle.NewExecute("fe", func(p any) (any, error) { return p, nil })
	fm := muscle.NewMerge("fm", func(p []any) (any, error) { return nil, nil })
	nd := skel.NewDaC(fc, fs, skel.NewSeq(fe), fm)
	w.est.InitDuration(fc.ID(), u(1))
	w.est.InitDuration(fs.ID(), u(4))
	w.est.InitDuration(fe.ID(), u(20))
	w.est.InitDuration(fm.ID(), u(3))
	w.est.InitCard(fc.ID(), 1) // depth estimate: one split level
	w.est.InitCard(fs.ID(), 2)

	// Root dac: cond true [0,1], split [1,5] card 2; no children started.
	w.emit(nd, 0, event.NoParent, event.Before, event.Skeleton, 0, nil)
	w.emit(nd, 0, event.NoParent, event.Before, event.Condition, 0, func(e *event.Event) { e.Iter = 0 })
	w.emit(nd, 0, event.NoParent, event.After, event.Condition, 1, func(e *event.Event) { e.Cond = true; e.Iter = 0 })
	w.emit(nd, 0, event.NoParent, event.Before, event.Split, 1, nil)
	w.emit(nd, 0, event.NoParent, event.After, event.Split, 5, func(e *event.Event) { e.Card = 2 })

	g := w.graph(t, 6)
	g.ScheduleBestEffort()
	// Children (virtual, depth 1 = leaves): cond 1 + fe 20 each in
	// parallel from now=6 -> 27; merge 3 -> 30.
	if wct := g.WCT(); wct != u(30) {
		t.Fatalf("WCT %v, want 30ms\n%s", wct, g.Render(time.Millisecond))
	}
}
