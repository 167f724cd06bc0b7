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

// fig1World reconstructs the paper's Fig. 1 situation: the program
// map(fs, map(fs, seq(fe), fm), fm) with t(fs)=10, t(fe)=15, t(fm)=5 and
// |fs|=3, executed with LP 2, observed at WCT 70. Times are virtual
// milliseconds ("1 paper time unit = 1 ms").
type fig1World struct {
	fs, fe, fm *muscle.Muscle
	outer      *skel.Node
	inner      *skel.Node
	est        *estimate.Registry
	tr         *statemachine.Tracker
	start      time.Time
}

func u(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }

func newFig1World(t *testing.T) *fig1World {
	t.Helper()
	w := &fig1World{
		fs: muscle.NewSplit("fs", func(any) ([]any, error) { return nil, nil }),
		fe: muscle.NewExecute("fe", func(p any) (any, error) { return p, nil }),
		fm: muscle.NewMerge("fm", func([]any) (any, error) { return nil, nil }),
	}
	w.inner = skel.NewMap(w.fs, skel.NewSeq(w.fe), w.fm)
	w.outer = skel.NewMap(w.fs, w.inner, w.fm)
	w.est = estimate.NewRegistry(estimate.DefaultRho)
	w.est.InitDuration(w.fs.ID(), u(10))
	w.est.InitDuration(w.fe.ID(), u(15))
	w.est.InitDuration(w.fm.ID(), u(5))
	w.est.InitCard(w.fs.ID(), 3)
	w.tr = statemachine.NewTracker(w.est)
	w.start = clock.Epoch
	return w
}

// ev feeds one event into the tracker.
func (w *fig1World) ev(nd *skel.Node, idx, parent int64, when event.When, where event.Where, ms int, worker int, mod func(*event.Event)) {
	e := &event.Event{
		Node:   nd,
		Trace:  []*skel.Node{nd},
		Index:  idx,
		Parent: parent,
		When:   when,
		Where:  where,
		Time:   w.start.Add(u(ms)),
		Worker: worker,
	}
	if mod != nil {
		mod(e)
	}
	w.tr.Listener().Handler(e)
}

// replayUntil70 feeds the exact history of the paper's example: LP 2, both
// first-level branches done by 70 except B's merge, third split running
// since 65.
func (w *fig1World) replayUntil70() {
	card3 := func(e *event.Event) { e.Card = 3 }
	// Outer map: split [0,10], card 3.
	w.ev(w.outer, 0, event.NoParent, event.Before, event.Skeleton, 0, 0, nil)
	w.ev(w.outer, 0, event.NoParent, event.Before, event.Split, 0, 0, nil)
	w.ev(w.outer, 0, event.NoParent, event.After, event.Split, 10, 0, card3)
	// Inner maps A (worker 0) and B (worker 1): splits [10,20].
	w.ev(w.inner, 1, 0, event.Before, event.Skeleton, 10, 0, nil)
	w.ev(w.inner, 1, 0, event.Before, event.Split, 10, 0, nil)
	w.ev(w.inner, 1, 0, event.After, event.Split, 20, 0, card3)
	w.ev(w.inner, 2, 0, event.Before, event.Skeleton, 10, 1, nil)
	w.ev(w.inner, 2, 0, event.Before, event.Split, 10, 1, nil)
	w.ev(w.inner, 2, 0, event.After, event.Split, 20, 1, card3)
	// Six fe muscles, two at a time: [20,35], [35,50], [50,65].
	seq := w.inner.Children()[0]
	idx := int64(3)
	for round := 0; round < 3; round++ {
		for b, parent := range []int64{1, 2} {
			start := 20 + 15*round
			w.ev(seq, idx, parent, event.Before, event.Skeleton, start, b, nil)
			w.ev(seq, idx, parent, event.After, event.Skeleton, start+15, b, nil)
			idx++
		}
	}
	// A's merge [65,70] on worker 0; A closes at 70.
	w.ev(w.inner, 1, 0, event.Before, event.Merge, 65, 0, nil)
	w.ev(w.inner, 1, 0, event.After, event.Merge, 70, 0, nil)
	w.ev(w.inner, 1, 0, event.After, event.Skeleton, 70, 0, nil)
	// Third inner map C: split started at 65 on worker 1, still running.
	w.ev(w.inner, 9, 0, event.Before, event.Skeleton, 65, 1, nil)
	w.ev(w.inner, 9, 0, event.Before, event.Split, 65, 1, nil)
}

func (w *fig1World) graphAt70(t *testing.T) *Graph {
	t.Helper()
	b := Builder{Est: w.est}
	g, err := b.BuildLive(w.tr.Root(), w.start, w.start.Add(u(70)))
	if err != nil {
		t.Fatalf("BuildLive: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("graph invalid: %v", err)
	}
	return g
}

// TestFig1BestEffort reproduces the paper's best-effort analysis: the
// estimated best WCT at snapshot time 70 is 100.
func TestFig1BestEffort(t *testing.T) {
	w := newFig1World(t)
	w.replayUntil70()
	g := w.graphAt70(t)
	g.ScheduleBestEffort()
	if err := g.CheckSchedule(0); err != nil {
		t.Fatal(err)
	}
	if wct := g.WCT(); wct != u(100) {
		t.Fatalf("best-effort WCT = %v, want 100ms\n%s", wct, g.Render(time.Millisecond))
	}
}

// TestFig1OptimalLP reproduces Fig. 2: the best-effort timeline peaks at 3
// active threads (during [75,90)), so the optimal LP is 3.
func TestFig1OptimalLP(t *testing.T) {
	w := newFig1World(t)
	w.replayUntil70()
	g := w.graphAt70(t)
	if lp := g.OptimalLP(); lp != 3 {
		t.Fatalf("optimal LP = %d, want 3\n%s\n%s", lp,
			g.Render(time.Millisecond), g.RenderTimeline(time.Millisecond))
	}
	// And the peak interval is [75,90): at 74 the level is 2, at 75..89 it
	// is 3, at 90 it drops.
	steps := g.Timeline()
	levelAt := func(ms int) int {
		lvl := 0
		for _, s := range steps {
			if s.T > u(ms) {
				break
			}
			lvl = s.Active
		}
		return lvl
	}
	for ms, want := range map[int]int{72: 2, 75: 3, 89: 3, 90: 1, 96: 1} {
		if got := levelAt(ms); got != want {
			t.Errorf("active threads at %dms = %d, want %d", ms, got, want)
		}
	}
}

// TestFig1LimitedLP reproduces the limited-LP(2) strategy: total WCT 115.
func TestFig1LimitedLP(t *testing.T) {
	w := newFig1World(t)
	w.replayUntil70()
	g := w.graphAt70(t)
	g.ScheduleLimited(2)
	if err := g.CheckSchedule(2); err != nil {
		t.Fatal(err)
	}
	if wct := g.WCT(); wct != u(115) {
		t.Fatalf("limited-LP(2) WCT = %v, want 115ms\n%s", wct, g.Render(time.Millisecond))
	}
}

// TestFig1GoalDrivenIncrease reproduces the paper's closing remark on the
// example: "if we set the WCT QoS goal to 100, Skandium will autonomically
// increase LP to 3 in order to achieve the goal".
func TestFig1GoalDrivenIncrease(t *testing.T) {
	w := newFig1World(t)
	w.replayUntil70()
	g := w.graphAt70(t)
	deadline := w.start.Add(u(100))
	lp, ok := g.MinLPForGoal(deadline, 16)
	if !ok {
		t.Fatal("goal 100 should be achievable")
	}
	if lp != 3 {
		t.Fatalf("min LP for goal 100 = %d, want 3", lp)
	}
	// With LP 2 the goal is missed (115 > 100).
	g.ScheduleLimited(2)
	if !g.EndTime().After(deadline) {
		t.Fatal("LP 2 should miss the 100ms goal")
	}
}

// TestFig1SequentialEstimate checks the closed-form sequential work:
// 10 + 3*(10 + 3*15 + 5) + 5 = 195.
func TestFig1SequentialEstimate(t *testing.T) {
	w := newFig1World(t)
	d, err := SeqEstimate(w.est, w.outer)
	if err != nil {
		t.Fatal(err)
	}
	if d != u(195) {
		t.Fatalf("sequential estimate = %v, want 195ms", d)
	}
}

// TestFig1VirtualBuild plans the whole program before execution: the
// virtual best-effort WCT is 10 (outer split) + 10 (inner splits, parallel)
// + 15 (all fe parallel) + 5 (inner merges) + 5 (outer merge) = 45.
func TestFig1VirtualBuild(t *testing.T) {
	w := newFig1World(t)
	b := Builder{Est: w.est}
	g, err := b.BuildVirtual(w.outer, w.start)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	g.ScheduleBestEffort()
	if wct := g.WCT(); wct != u(45) {
		t.Fatalf("virtual best-effort WCT = %v, want 45ms\n%s", wct, g.Render(time.Millisecond))
	}
	// 17 activities: 1 split + 3*(split + 3 fe + merge) + 1 merge.
	if g.Len() != 17 {
		t.Fatalf("got %d activities, want 17", g.Len())
	}
	// Limited to 1 thread the schedule must equal the sequential estimate.
	g.ScheduleLimited(1)
	if wct := g.WCT(); wct != u(195) {
		t.Fatalf("limited(1) WCT = %v, want 195ms (sequential)", wct)
	}
	if err := g.CheckSchedule(1); err != nil {
		t.Fatal(err)
	}
}

// TestFig1IncompleteEstimates: without |fs| the ADG cannot be built and the
// error names the muscle.
func TestFig1IncompleteEstimates(t *testing.T) {
	w := newFig1World(t)
	est := estimate.NewRegistry(estimate.DefaultRho)
	est.InitDuration(w.fs.ID(), u(10))
	est.InitDuration(w.fe.ID(), u(15))
	est.InitDuration(w.fm.ID(), u(5))
	// no card for fs
	b := Builder{Est: est}
	_, err := b.BuildVirtual(w.outer, w.start)
	ie, ok := err.(*IncompleteError)
	if !ok {
		t.Fatalf("want IncompleteError, got %v", err)
	}
	if !ie.Card || ie.Muscle != w.fs {
		t.Fatalf("wrong incomplete report: %v", err)
	}
}

// TestRequiredEstimates lists exactly fs/fe/fm durations and fs cardinality
// for the Fig. 1 program.
func TestRequiredEstimates(t *testing.T) {
	w := newFig1World(t)
	dur, card := RequiredEstimates(w.outer)
	if len(dur) != 3 {
		t.Fatalf("dur IDs = %v, want 3 distinct", dur)
	}
	if len(card) != 1 || card[0] != w.fs.ID() {
		t.Fatalf("card IDs = %v, want [fs]", card)
	}
}
