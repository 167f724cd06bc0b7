package core

import (
	"strings"
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

func u(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }

// fakeLever records SetLP calls.
type fakeLever struct {
	mu  sync.Mutex
	lp  int
	max int
	log []int
}

func (f *fakeLever) LP() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lp
}

func (f *fakeLever) SetLP(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.max > 0 && n > f.max {
		n = f.max
	}
	if n < 1 {
		n = 1
	}
	f.lp = n
	f.log = append(f.log, n)
}

// fig1Setup rebuilds the paper's Fig. 1 snapshot (see adg tests) and
// returns everything a controller needs.
type fig1Setup struct {
	outer, inner *skel.Node
	fs, fe, fm   *muscle.Muscle
	est          *estimate.Registry
	tr           *statemachine.Tracker
}

func newFig1Setup() *fig1Setup {
	s := &fig1Setup{
		fs: muscle.NewSplit("fs", func(any) ([]any, error) { return nil, nil }),
		fe: muscle.NewExecute("fe", func(p any) (any, error) { return p, nil }),
		fm: muscle.NewMerge("fm", func([]any) (any, error) { return nil, nil }),
	}
	s.inner = skel.NewMap(s.fs, skel.NewSeq(s.fe), s.fm)
	s.outer = skel.NewMap(s.fs, s.inner, s.fm)
	s.est = estimate.NewRegistry(estimate.DefaultRho)
	s.est.InitDuration(s.fs.ID(), u(10))
	s.est.InitDuration(s.fe.ID(), u(15))
	s.est.InitDuration(s.fm.ID(), u(5))
	s.est.InitCard(s.fs.ID(), 3)
	s.tr = statemachine.NewTracker(s.est)
	return s
}

func (s *fig1Setup) emit(nd *skel.Node, idx, parent int64, when event.When, where event.Where, ms int, card int) {
	s.tr.Listener().Handler(&event.Event{
		Node: nd, Trace: []*skel.Node{nd}, Index: idx, Parent: parent,
		When: when, Where: where, Time: clock.Epoch.Add(u(ms)), Card: card,
	})
}

func (s *fig1Setup) replayUntil70() {
	s.emit(s.outer, 0, event.NoParent, event.Before, event.Skeleton, 0, 0)
	s.emit(s.outer, 0, event.NoParent, event.Before, event.Split, 0, 0)
	s.emit(s.outer, 0, event.NoParent, event.After, event.Split, 10, 3)
	for b, idx := range []int64{1, 2} {
		_ = b
		s.emit(s.inner, idx, 0, event.Before, event.Skeleton, 10, 0)
		s.emit(s.inner, idx, 0, event.Before, event.Split, 10, 0)
		s.emit(s.inner, idx, 0, event.After, event.Split, 20, 3)
	}
	seq := s.inner.Children()[0]
	idx := int64(3)
	for round := 0; round < 3; round++ {
		for _, parent := range []int64{1, 2} {
			start := 20 + 15*round
			s.emit(seq, idx, parent, event.Before, event.Skeleton, start, 0)
			s.emit(seq, idx, parent, event.After, event.Skeleton, start+15, 0)
			idx++
		}
	}
	s.emit(s.inner, 1, 0, event.Before, event.Merge, 65, 0)
	s.emit(s.inner, 1, 0, event.After, event.Merge, 70, 0)
	s.emit(s.inner, 1, 0, event.After, event.Skeleton, 70, 0)
	s.emit(s.inner, 9, 0, event.Before, event.Skeleton, 65, 0)
	s.emit(s.inner, 9, 0, event.Before, event.Split, 65, 0)
}

// TestIncreaseToOptimalFig1 is the paper's §4 closing example: goal 100 at
// the Fig. 1 snapshot, LP 2 -> "Skandium will autonomically increase LP to
// 3" (IncreaseOptimal finds the best-effort timeline peak 3).
func TestIncreaseToOptimalFig1(t *testing.T) {
	s := newFig1Setup()
	s.replayUntil70()
	lever := &fakeLever{lp: 2}
	ctl := NewController(Config{WCTGoal: u(100), Policy: PaperPolicy{Increase: IncreaseOptimal}},
		s.outer, lever, s.est, s.tr, clock.NewVirtual(clock.Epoch))
	ctl.SetStart(clock.Epoch)
	if !ctl.Analyze(clock.Epoch.Add(u(70))) {
		t.Fatal("analysis did not run")
	}
	if lever.LP() != 3 {
		t.Fatalf("LP = %d, want 3", lever.LP())
	}
	ds := ctl.Decisions()
	if len(ds) != 1 || ds[0].OldLP != 2 || ds[0].NewLP != 3 {
		t.Fatalf("decisions: %v", ds)
	}
	if ds[0].PredictedWCT != u(115) {
		t.Fatalf("predicted WCT %v, want 115ms", ds[0].PredictedWCT)
	}
	if ds[0].BestWCT != u(100) {
		t.Fatalf("best WCT %v, want 100ms", ds[0].BestWCT)
	}
	if ds[0].OptimalLP != 3 {
		t.Fatalf("optimal LP %d, want 3", ds[0].OptimalLP)
	}
	if s := ds[0].String(); !strings.Contains(s, "lp 2->3 (pred=115ms best=100ms opt=3)") {
		t.Fatalf("decision renders %q", s)
	}
}

// TestIncreaseMinimalFig1 finds the same LP 3 (it is both minimal and
// optimal here).
func TestIncreaseMinimalFig1(t *testing.T) {
	s := newFig1Setup()
	s.replayUntil70()
	lever := &fakeLever{lp: 2, max: 16}
	ctl := NewController(Config{WCTGoal: u(100), MaxLP: 16, Policy: PaperPolicy{Increase: IncreaseMinimal}},
		s.outer, lever, s.est, s.tr, clock.NewVirtual(clock.Epoch))
	ctl.SetStart(clock.Epoch)
	ctl.Analyze(clock.Epoch.Add(u(70)))
	if lever.LP() != 3 {
		t.Fatalf("LP = %d, want 3", lever.LP())
	}
}

// TestNoIncreaseWhenGoalMet: goal 120 > limited-LP(2) prediction 115, so
// nothing changes (halving to 1 would predict ~160 > 120, so no decrease
// either).
func TestNoIncreaseWhenGoalMet(t *testing.T) {
	s := newFig1Setup()
	s.replayUntil70()
	lever := &fakeLever{lp: 2}
	ctl := NewController(Config{WCTGoal: u(120)},
		s.outer, lever, s.est, s.tr, clock.NewVirtual(clock.Epoch))
	ctl.SetStart(clock.Epoch)
	ctl.Analyze(clock.Epoch.Add(u(70)))
	if lever.LP() != 2 || len(ctl.Decisions()) != 0 {
		t.Fatalf("LP=%d decisions=%v", lever.LP(), ctl.Decisions())
	}
}

// TestDecreaseHalves: a very loose goal lets the controller halve from 8 to
// 4 (one halving per analysis, the paper's conservative decrease).
func TestDecreaseHalves(t *testing.T) {
	s := newFig1Setup()
	s.replayUntil70()
	lever := &fakeLever{lp: 8}
	ctl := NewController(Config{WCTGoal: u(500), Policy: PaperPolicy{Decrease: DecreaseHalve}},
		s.outer, lever, s.est, s.tr, clock.NewVirtual(clock.Epoch))
	ctl.SetStart(clock.Epoch)
	ctl.Analyze(clock.Epoch.Add(u(70)))
	if lever.LP() != 4 {
		t.Fatalf("LP = %d, want 4 (one halving)", lever.LP())
	}
	ctl.Analyze(clock.Epoch.Add(u(71)))
	if lever.LP() != 2 {
		t.Fatalf("LP = %d, want 2 (second halving)", lever.LP())
	}
}

// TestDecreaseNone keeps LP.
func TestDecreaseNone(t *testing.T) {
	s := newFig1Setup()
	s.replayUntil70()
	lever := &fakeLever{lp: 8}
	ctl := NewController(Config{WCTGoal: u(500), Policy: PaperPolicy{Decrease: DecreaseNone}},
		s.outer, lever, s.est, s.tr, clock.NewVirtual(clock.Epoch))
	ctl.SetStart(clock.Epoch)
	ctl.Analyze(clock.Epoch.Add(u(70)))
	if lever.LP() != 8 {
		t.Fatalf("LP = %d, want 8", lever.LP())
	}
}

// TestDecreaseExact drops straight to the minimum sufficient LP.
func TestDecreaseExact(t *testing.T) {
	s := newFig1Setup()
	s.replayUntil70()
	lever := &fakeLever{lp: 8}
	ctl := NewController(Config{WCTGoal: u(500), Policy: PaperPolicy{Decrease: DecreaseExact}},
		s.outer, lever, s.est, s.tr, clock.NewVirtual(clock.Epoch))
	ctl.SetStart(clock.Epoch)
	ctl.Analyze(clock.Epoch.Add(u(70)))
	if lever.LP() != 1 {
		t.Fatalf("LP = %d, want 1 (160ms sequential < 500ms goal)", lever.LP())
	}
}

// TestDecreaseHoldDamping: right after an increase, decreases are held
// back for the configured duration.
func TestDecreaseHoldDamping(t *testing.T) {
	s := newFig1Setup()
	s.replayUntil70()
	lever := &fakeLever{lp: 2}
	ctl := NewController(Config{WCTGoal: u(100), Policy: PaperPolicy{Increase: IncreaseOptimal},
		DecreaseHold: u(50)},
		s.outer, lever, s.est, s.tr, clock.NewVirtual(clock.Epoch))
	ctl.SetStart(clock.Epoch)
	// Increase at t=70 (2 -> 3).
	ctl.Analyze(clock.Epoch.Add(u(70)))
	if lever.LP() != 3 {
		t.Fatalf("LP = %d, want 3", lever.LP())
	}
	// Pretend the LP was manually raised: a decrease would now be possible
	// (goal easily met) but must be held until 70+50.
	lever.SetLP(8)
	ctl.cfg.WCTGoal = u(500)
	ctl.Analyze(clock.Epoch.Add(u(100)))
	if lever.LP() != 8 {
		t.Fatalf("decrease not held: LP = %d", lever.LP())
	}
	ctl.Analyze(clock.Epoch.Add(u(121)))
	if lever.LP() != 4 {
		t.Fatalf("decrease after hold did not halve: LP = %d", lever.LP())
	}
}

// TestMaxLPCapsIncrease: LP QoS bounds the increase.
func TestMaxLPCapsIncrease(t *testing.T) {
	s := newFig1Setup()
	s.replayUntil70()
	lever := &fakeLever{lp: 1, max: 2}
	ctl := NewController(Config{WCTGoal: u(90), MaxLP: 2, Policy: PaperPolicy{Increase: IncreaseOptimal}},
		s.outer, lever, s.est, s.tr, clock.NewVirtual(clock.Epoch))
	ctl.SetStart(clock.Epoch)
	ctl.Analyze(clock.Epoch.Add(u(70)))
	if lever.LP() > 2 {
		t.Fatalf("LP = %d exceeds MaxLP 2", lever.LP())
	}
}

// TestGatedUntilEstimatesComplete: no analysis before every required
// estimate exists.
func TestGatedUntilEstimatesComplete(t *testing.T) {
	s := newFig1Setup()
	// Wipe the estimates: fresh registry without |fs|.
	est := estimate.NewRegistry(estimate.DefaultRho)
	tr := statemachine.NewTracker(est)
	lever := &fakeLever{lp: 1}
	ctl := NewController(Config{WCTGoal: u(100)}, s.outer, lever, est, tr,
		clock.NewVirtual(clock.Epoch))
	ctl.SetStart(clock.Epoch)
	if ctl.Analyze(clock.Epoch.Add(u(10))) {
		t.Fatal("analysis ran without estimates")
	}
	if ctl.Analyses() != 0 || len(ctl.Decisions()) != 0 {
		t.Fatal("gated analysis left traces")
	}
}

// TestNoGoalNoAnalysis: a zero WCT goal disables the control loop.
func TestNoGoalNoAnalysis(t *testing.T) {
	s := newFig1Setup()
	s.replayUntil70()
	lever := &fakeLever{lp: 2}
	ctl := NewController(Config{}, s.outer, lever, s.est, s.tr,
		clock.NewVirtual(clock.Epoch))
	if ctl.Analyze(clock.Epoch.Add(u(70))) {
		t.Fatal("analysis ran without a goal")
	}
}

// TestListenerThrottling: with an AnalysisInterval, only spaced-out events
// trigger analyses, and the first possible one is never delayed by gated
// attempts.
func TestListenerThrottling(t *testing.T) {
	s := newFig1Setup()
	lever := &fakeLever{lp: 2}
	ctl := NewController(Config{WCTGoal: u(100), AnalysisInterval: u(50)},
		s.outer, lever, s.est, s.tr, clock.NewVirtual(clock.Epoch))
	ctl.SetStart(clock.Epoch)
	reg := event.NewRegistry()
	Attach(reg, s.tr, ctl)

	emitVia := func(nd *skel.Node, idx, parent int64, when event.When, where event.Where, ms, card int) {
		reg.Emit(&event.Event{Node: nd, Trace: []*skel.Node{nd}, Index: idx, Parent: parent,
			When: when, Where: where, Time: clock.Epoch.Add(u(ms)), Card: card})
	}
	// Run a full inner map so estimates become complete at t=45.
	emitVia(s.outer, 0, event.NoParent, event.Before, event.Skeleton, 0, 0)
	emitVia(s.outer, 0, event.NoParent, event.Before, event.Split, 0, 0)
	emitVia(s.outer, 0, event.NoParent, event.After, event.Split, 10, 3)
	emitVia(s.inner, 1, 0, event.Before, event.Skeleton, 10, 0)
	emitVia(s.inner, 1, 0, event.Before, event.Split, 10, 0)
	emitVia(s.inner, 1, 0, event.After, event.Split, 20, 3)
	seq := s.inner.Children()[0]
	emitVia(seq, 2, 1, event.Before, event.Skeleton, 20, 0)
	emitVia(seq, 2, 1, event.After, event.Skeleton, 35, 0)
	emitVia(s.inner, 1, 0, event.Before, event.Merge, 40, 0)
	emitVia(s.inner, 1, 0, event.After, event.Merge, 45, 0)
	first := ctl.Analyses()
	if first == 0 {
		t.Fatal("first analysis never ran")
	}
	// Immediately-following events within the interval do not re-analyze.
	emitVia(seq, 3, 1, event.Before, event.Skeleton, 46, 0)
	emitVia(seq, 3, 1, event.After, event.Skeleton, 47, 0)
	if ctl.Analyses() != first {
		t.Fatalf("throttle failed: %d analyses", ctl.Analyses())
	}
	// After the interval, analysis runs again.
	emitVia(seq, 4, 1, event.Before, event.Skeleton, 120, 0)
	emitVia(seq, 4, 1, event.After, event.Skeleton, 130, 0)
	if ctl.Analyses() <= first {
		t.Fatal("no analysis after the interval")
	}
}

// TestRootDoneStopsAnalyses: after the root Skeleton/After the controller
// goes quiet.
func TestRootDoneStopsAnalyses(t *testing.T) {
	s := newFig1Setup()
	lever := &fakeLever{lp: 2}
	ctl := NewController(Config{WCTGoal: u(100)},
		s.outer, lever, s.est, s.tr, clock.NewVirtual(clock.Epoch))
	ctl.SetStart(clock.Epoch)
	reg := event.NewRegistry()
	Attach(reg, s.tr, ctl)
	reg.Emit(&event.Event{Node: s.outer, Trace: []*skel.Node{s.outer},
		Index: 0, Parent: event.NoParent, When: event.Before, Where: event.Skeleton,
		Time: clock.Epoch})
	reg.Emit(&event.Event{Node: s.outer, Trace: []*skel.Node{s.outer},
		Index: 0, Parent: event.NoParent, When: event.After, Where: event.Skeleton,
		Time: clock.Epoch.Add(u(10))})
	n := ctl.Analyses()
	reg.Emit(&event.Event{Node: s.inner, Trace: []*skel.Node{s.inner},
		Index: 1, Parent: 0, When: event.After, Where: event.Skeleton,
		Time: clock.Epoch.Add(u(20))})
	if ctl.Analyses() != n {
		t.Fatal("controller analyzed after the root finished")
	}
}

// TestStartTickerLifecycle: zero duration is a no-op; the stop function is
// idempotent; a finished controller's ticker exits on its own.
func TestStartTickerLifecycle(t *testing.T) {
	s := newFig1Setup()
	lever := &fakeLever{lp: 1}
	ctl := NewController(Config{WCTGoal: u(100)}, s.outer, lever, s.est, s.tr,
		clock.NewVirtual(clock.Epoch))
	stop := ctl.StartTicker(0)
	stop()
	stop = ctl.StartTicker(time.Millisecond)
	time.Sleep(5 * time.Millisecond)
	stop()
	stop() // idempotent
	// Finished controllers stop ticking by themselves.
	ctl.mu.Lock()
	ctl.finished = true
	ctl.mu.Unlock()
	stop2 := ctl.StartTicker(time.Millisecond)
	time.Sleep(5 * time.Millisecond)
	stop2()
}

// TestControllerDropsGraphWhenDone: the controller keeps one ADG across
// analyses — rescheduled in place when only the instant moves, rebuilt in
// place when the knowledge does — and holds neither it nor the memoized
// prediction once the root activation has finished or the controller is
// released; a released controller analyses nothing.
func TestControllerDropsGraphWhenDone(t *testing.T) {
	for _, release := range []bool{false, true} {
		s := newFig1Setup()
		s.replayUntil70()
		ctl := NewController(Config{WCTGoal: u(100)}, s.outer, &fakeLever{lp: 3}, s.est, s.tr,
			clock.NewVirtual(clock.Epoch))
		ctl.SetStart(clock.Epoch)
		if !ctl.Analyze(clock.Epoch.Add(u(70))) {
			t.Fatal("first analysis did not run")
		}
		kept := ctl.live
		if kept == nil || ctl.memo.pred != &kept.pred {
			t.Fatal("the ADG predictor kept no graph")
		}
		ctl.Analyze(clock.Epoch.Add(u(75)))
		s.est.InitDuration(s.fe.ID(), u(16))
		ctl.Analyze(clock.Epoch.Add(u(75)))
		if ctl.live != kept {
			t.Fatal("the graph was replaced instead of reused")
		}
		if release {
			ctl.Release()
			if s.tr.Root() != nil {
				t.Fatal("Release kept the activation tree")
			}
		} else {
			ctl.Listener().Handler(&event.Event{
				Node: s.outer, Trace: []*skel.Node{s.outer}, Index: 0, Parent: event.NoParent,
				When: event.After, Where: event.Skeleton, Time: clock.Epoch.Add(u(120)),
			})
		}
		if ctl.live != nil || ctl.memo.pred != nil {
			t.Fatalf("release=%v: graph %p, memo %p still held", release, ctl.live, ctl.memo.pred)
		}
		if ctl.Analyze(clock.Epoch.Add(u(130))) {
			t.Fatalf("release=%v: analysed after the end", release)
		}
	}
}
