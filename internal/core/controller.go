// Package core implements the paper's autonomic controller: the component
// that watches a skeleton execution through its events, estimates the
// remaining wall-clock time with the ADG, and adapts the level of
// parallelism (LP) so a WCT quality-of-service goal is met — increasing LP
// eagerly to the optimal level when the goal would be missed, decreasing it
// conservatively (by halving) when the goal survives with fewer threads.
package core

import (
	"fmt"
	"sync"
	"time"

	"skandium/internal/adg"
	"skandium/internal/clock"
	"skandium/internal/estimate"
	"skandium/internal/event"
	"skandium/internal/muscle"
	"skandium/internal/skel"
	"skandium/internal/statemachine"
)

// LPControl abstracts the resource lever: the real engine's pool and the
// simulator's scheduler both implement it.
type LPControl interface {
	// LP returns the current level-of-parallelism target.
	LP() int
	// SetLP requests a new target (implementations clamp to their caps).
	SetLP(n int)
}

// IncreasePolicy selects how PaperPolicy raises LP on a missed goal.
type IncreasePolicy int

// Increase policies.
const (
	// IncreaseOptimal is the paper's behaviour: jump to the optimal LP,
	// i.e. the peak of the best-effort timeline ("Skandium will
	// autonomically increase LP to 3").
	IncreaseOptimal IncreasePolicy = iota
	// IncreaseMinimal raises LP only to the smallest value whose
	// limited-LP schedule meets the goal (ablation variant; the paper
	// notes the exact problem is NP-complete).
	IncreaseMinimal
)

// DecreasePolicy selects how PaperPolicy lowers LP on a comfortably met
// goal.
type DecreasePolicy int

// Decrease policies.
const (
	// DecreaseHalve is the paper's behaviour: "first checks if the goal
	// could be targeted using half of threads; if it can, it decreases the
	// number of threads to the half". Deliberately slower than increase.
	DecreaseHalve DecreasePolicy = iota
	// DecreaseNone never lowers LP (ablation variant).
	DecreaseNone
	// DecreaseExact lowers LP directly to the minimal value that still
	// meets the goal (ablation variant).
	DecreaseExact
)

// Config tunes a Controller.
type Config struct {
	// WCTGoal is the wall-clock-time QoS measured from execution start.
	// Zero disables WCT-driven adaptation (the controller still records
	// analyses).
	WCTGoal time.Duration
	// MaxLP is the level-of-parallelism QoS cap; 0 means uncapped.
	MaxLP int
	// AnalysisInterval throttles how often event-triggered analyses may
	// run. Zero analyses on every qualifying event (the paper's "react as
	// soon as we detect" behaviour; fine for coarse muscles).
	AnalysisInterval time.Duration
	// Policy is the adaptation rule (see Policy and NewPolicy); nil means
	// the paper's, PaperPolicy{}. Its ablations are PaperPolicy values or
	// the registry's paper-* names. A stateful policy value must not be shared across concurrently
	// executing controllers — callers fanning one configured value out to
	// several controllers replicate it with ClonePolicy first.
	Policy Policy
	// DecreaseHold suppresses decreases for this long after an increase,
	// damping the raise/halve oscillation that per-event analyses can
	// produce when estimates are still settling. Zero keeps the paper's
	// undamped behaviour. The hold is clamped by decision sequence, not
	// wall time alone: a decrease additionally needs at least one completed
	// analysis at an instant strictly after the increase, so a virtual
	// clock jumping past the window in one event batch (AnalysisInterval
	// zero, events sharing a timestamp) still gets one damped analysis
	// instead of none.
	DecreaseHold time.Duration
}

// unreachableSlack is the tolerated overshoot (relative to the remaining
// best-effort time) when a goal cannot be met at all: the controller then
// settles for the cheapest LP landing within this margin of the best
// achievable end instead of burning peak parallelism for microseconds.
const unreachableSlack = 0.05

// paperPolicy is the default Policy, converted to the interface once.
var paperPolicy Policy = PaperPolicy{}

// errNoRoot gates analyses before the outermost skeleton has activated.
var errNoRoot = fmt.Errorf("core: no root activation yet")

// Decision records one adaptation (or explicit non-adaptation) for
// experiment harnesses and debugging.
type Decision struct {
	Time         time.Time
	OldLP        int
	NewLP        int
	PredictedWCT time.Duration // limited-LP(OldLP) estimate at analysis time
	BestWCT      time.Duration // best-effort estimate
	OptimalLP    int
	Reason       string
}

// String renders the decision compactly.
func (d Decision) String() string {
	return fmt.Sprintf("[%v] lp %d->%d (pred=%v best=%v opt=%d): %s",
		d.Time, d.OldLP, d.NewLP, d.PredictedWCT, d.BestWCT, d.OptimalLP, d.Reason)
}

// Demand is the controller's latest resource wish, the per-job face a
// machine-wide budget arbiter reads: how many workers this job wants
// (uncapped by any external grant) and how badly it is missing its goal.
type Demand struct {
	// Valid is false until the first complete analysis has run (estimates
	// still warming up).
	Valid bool
	// Time is when the analysis producing this demand ran.
	Time time.Time
	// CurrentLP is the lever's level of parallelism at analysis time (the
	// externally capped, actual value).
	CurrentLP int
	// DesiredLP is the LP the controller wants under its own policies and
	// MaxLP QoS, ignoring external caps.
	DesiredLP int
	// OptimalLP is the peak of the best-effort timeline.
	OptimalLP int
	// PredictedWCT is the estimated wall-clock time at CurrentLP.
	PredictedWCT time.Duration
	// BestWCT is the best-effort (unbounded LP) estimate.
	BestWCT time.Duration
	// Goal is the WCT goal in force at analysis time.
	Goal time.Duration
	// Overshoot is predicted end minus deadline: positive means the goal
	// will be missed at the current LP — the arbiter's severity key.
	Overshoot time.Duration
	// Finished reports whether the execution has completed.
	Finished bool
}

// Controller is the autonomic manager of one execution. Wire it after the
// tracker on the same event registry (Attach does both in order), so state
// machines observe an event before the controller analyses it.
type Controller struct {
	lever   LPControl
	est     *estimate.Registry
	tracker *statemachine.Tracker
	clk     clock.Clock

	reqDur  []muscle.ID
	reqCard []muscle.ID

	// anMu serializes analyses and guards gateOpen/released/memo/live. Kept
	// separate from mu so Demand/Decisions readers never wait behind an ADG
	// build, and so the memoized Prediction's closures (single-goroutine by
	// contract) are only ever exercised by one analysis at a time.
	anMu     sync.Mutex
	gateOpen bool
	released bool
	memo     analysisMemo
	// live is the ADG every analysis predicts from, kept across analyses
	// (nil before the first analysis and once the execution is over).
	live *liveADG

	mu           sync.Mutex
	cfg          Config // goal and MaxLP are adjustable at runtime
	start        time.Time
	started      bool
	finished     bool
	last         time.Time
	hasLast      bool
	lastIncrease time.Time
	hasIncrease  bool
	postIncAn    int // completed analyses strictly after lastIncrease
	lastWant     int // last LP target handed to the lever (0 = none yet)
	demand       Demand
	decisions    []Decision
	analyses     int
}

// NewController builds a controller for an execution of node. est and
// tracker must be the pair also registered on the execution's events; clk
// must be the execution's clock.
func NewController(cfg Config, node *skel.Node, lever LPControl, est *estimate.Registry, tracker *statemachine.Tracker, clk clock.Clock) *Controller {
	if node == nil || lever == nil || est == nil || tracker == nil {
		panic("core: NewController with nil dependency")
	}
	if clk == nil {
		clk = clock.System
	}
	dur, card := adg.RequiredEstimates(node)
	return &Controller{
		cfg:     cfg,
		lever:   lever,
		est:     est,
		tracker: tracker,
		clk:     clk,
		reqDur:  dur,
		reqCard: card,
	}
}

// Tracker returns the activation tracker the controller predicts from.
func (c *Controller) Tracker() *statemachine.Tracker { return c.tracker }

// Attach registers tracker then controller on reg, preserving the required
// order, and marks the execution start time.
func Attach(reg *event.Registry, tracker *statemachine.Tracker, c *Controller) {
	reg.Add(tracker.Listener())
	reg.Add(c.Listener())
}

// SetStart fixes the execution start the WCT goal is measured from. When
// not called, the first observed event's timestamp is used.
func (c *Controller) SetStart(t time.Time) {
	c.mu.Lock()
	c.start, c.started = t, true
	c.mu.Unlock()
}

// SetGoal adjusts the WCT goal at runtime (still measured from the original
// execution start). A non-positive goal suspends adaptation.
func (c *Controller) SetGoal(d time.Duration) {
	c.mu.Lock()
	c.cfg.WCTGoal = d
	c.mu.Unlock()
}

// SetMaxLP adjusts the LP QoS cap at runtime (0 = uncapped). It bounds what
// the controller will request; pair it with the lever's own cap to also
// shrink an already granted level.
func (c *Controller) SetMaxLP(n int) {
	c.mu.Lock()
	if n < 0 {
		n = 0
	}
	c.cfg.MaxLP = n
	c.mu.Unlock()
}

// Demand returns the controller's latest resource wish for budget
// arbitration. CurrentLP and Finished are always fresh; the estimate fields
// carry the last completed analysis (Valid=false before the first one).
func (c *Controller) Demand() Demand {
	c.mu.Lock()
	d := c.demand
	d.Finished = c.finished
	c.mu.Unlock()
	d.CurrentLP = c.lever.LP()
	return d
}

// Listener returns the event hook that triggers analyses. Only After events
// qualify: they are the moments knowledge changes (a muscle finished, a
// split cardinality became known).
func (c *Controller) Listener() event.Listener {
	return event.Func(func(e *event.Event) any {
		if e.Err != nil {
			// Failed attempts carry no new timing knowledge, but a terminal
			// fault changes the plan (a branch just vanished or got
			// substituted), so it is worth re-analyzing.
			if e.Where == event.Fault {
				c.maybeAnalyze(e.Time)
			}
			return e.Param
		}
		c.noteStart(e.Time)
		if e.When == event.After {
			c.maybeAnalyze(e.Time)
			c.noteRootDone(e)
		}
		return e.Param
	})
}

func (c *Controller) noteStart(t time.Time) {
	c.mu.Lock()
	if !c.started {
		c.start, c.started = t, true
	}
	c.mu.Unlock()
}

func (c *Controller) noteRootDone(e *event.Event) {
	if e.Where == event.Skeleton && e.Parent == event.NoParent {
		c.mu.Lock()
		c.finished = true
		c.mu.Unlock()
		// Nothing analyses a finished execution: let go of its graph before
		// the future resolves.
		c.anMu.Lock()
		c.dropAnalysis()
		c.anMu.Unlock()
	}
}

// Release drops everything the controller keeps for analysing — the ADG,
// the memoized prediction and the tracker's activation tree. Call it once
// the execution has resolved (whoever keeps a finished execution's handle
// would otherwise pin them); later analyses report false. Decisions and
// Demand stay readable.
func (c *Controller) Release() {
	c.anMu.Lock()
	c.released = true
	c.dropAnalysis()
	c.anMu.Unlock()
	c.tracker.Release()
}

// dropAnalysis forgets the graph and the memo. Caller holds anMu. A second
// drop (Release after the root finished) only reads the fields: whoever
// holds the finished execution may be reading them too.
func (c *Controller) dropAnalysis() {
	if c.live != nil {
		c.live = nil
	}
	if c.memo.pred != nil {
		c.memo = analysisMemo{}
	}
}

func (c *Controller) maybeAnalyze(now time.Time) {
	c.mu.Lock()
	if c.finished {
		c.mu.Unlock()
		return
	}
	if c.hasLast && c.cfg.AnalysisInterval > 0 && now.Sub(c.last) < c.cfg.AnalysisInterval {
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	if c.Analyze(now) {
		// Only completed analyses consume the interval: attempts gated on
		// incomplete estimates must not delay the first real analysis.
		c.mu.Lock()
		c.last, c.hasLast = now, true
		c.mu.Unlock()
	}
}

// StartTicker launches a background goroutine that re-analyzes every d,
// independent of events. Event-driven analysis reacts when knowledge
// changes; the ticker additionally reacts when *time* changes — e.g. a
// muscle overrunning its estimate produces no events, but the ADG's
// "tf = max(ti + t(m), now)" rule pushes the prediction out as the clock
// advances, which a periodic analysis can catch mid-muscle. Returns a stop
// function; the ticker also stops itself once the execution finishes.
// Only meaningful on real-time clocks (the simulator drives analyses from
// virtual-time events instead).
func (c *Controller) StartTicker(d time.Duration) (stop func()) {
	if d <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	var once sync.Once
	stop = func() { once.Do(func() { close(done) }) }
	go func() {
		t := time.NewTicker(d)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				c.mu.Lock()
				finished := c.finished
				c.mu.Unlock()
				if finished {
					return
				}
				c.Analyze(c.clk.Now())
			}
		}
	}()
	return stop
}

// Analyses returns how many full analyses have run.
func (c *Controller) Analyses() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.analyses
}

// Decisions returns a copy of the adaptation log.
func (c *Controller) Decisions() []Decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Decision(nil), c.decisions...)
}

// analysisMemo is one cached ADG prediction together with the inputs
// it was computed from (pred == nil: none). Versions are read before
// predicting, so an equal (estVer, topoVer) on a later analysis proves the
// knowledge base did not change in between — at worst the memo is newer
// than its key (a wasted recompute next time), never staler.
type analysisMemo struct {
	estVer  uint64
	topoVer uint64
	start   time.Time
	now     time.Time
	pred    *Prediction
}

// sameKnowledge reports whether the memo was computed from the given
// versions and start — whatever its instant.
func (m *analysisMemo) sameKnowledge(estVer, topoVer uint64, start time.Time) bool {
	return m.pred != nil && m.estVer == estVer && m.topoVer == topoVer && m.start.Equal(start)
}

// Analyze runs one full estimation/adaptation cycle at time now and
// reports whether the analysis actually ran (false while gated on missing
// estimates). It is normally invoked from the event listener but is
// exported for tests, the simulator and external schedulers.
func (c *Controller) Analyze(now time.Time) bool {
	c.anMu.Lock()
	defer c.anMu.Unlock()
	// finished is read under anMu: an analysis that starts after the root
	// finished (a ticker racing the last After) must not build a graph again
	// once noteRootDone has dropped it.
	c.mu.Lock()
	cfg := c.cfg // goal/MaxLP may be adjusted at runtime; analyze a snapshot
	start := c.start
	finished := c.finished
	c.mu.Unlock()
	if cfg.WCTGoal <= 0 || finished || c.released {
		return false
	}
	// Gate: all muscles observed or initialized (the paper's "wait until
	// all muscles have been executed at least once"). Estimates are never
	// forgotten, so the gate is monotone: once open the scan is skipped.
	if !c.gateOpen {
		if !c.est.Complete(c.reqDur, c.reqCard) {
			return false
		}
		c.gateOpen = true
	}

	// Versions are read before predicting (see analysisMemo). The memo is
	// reused at three depths: nothing changed since the last analysis at
	// the same instant (virtual-time event batches share a timestamp) —
	// reuse the prediction; only the instant moved (the analysis ticker,
	// or a throttled event) — reschedule the kept ADG at now, skipping the
	// tree snapshot and the build; the estimates or the tree changed —
	// rebuild the ADG in place.
	estVer := c.est.Version()
	topoVer := c.tracker.Version()
	m := &c.memo
	switch known := m.sameKnowledge(estVer, topoVer, start); {
	case known && m.now.Equal(now):
		// the kept prediction stands
	case known:
		c.live.reschedule(now)
	default:
		if c.live == nil {
			c.live = newLiveADG()
		}
		err := c.live.build(PredictorInput{
			Tracker: c.tracker,
			Est:     c.est,
			Start:   start,
			Now:     now,
		})
		if err != nil {
			m.pred = nil // not started yet, or the graph is half rebuilt; retry later
			return false
		}
	}
	pred := &c.live.pred
	*m = analysisMemo{estVer: estVer, topoVer: topoVer, start: start, now: now, pred: pred}
	cur := c.lever.LP()
	deadline := start.Add(cfg.WCTGoal)

	predictedEnd := pred.LimitedEnd(cur)
	predicted := predictedEnd.Sub(start)
	best := pred.BestEnd.Sub(start)
	optimal := pred.OptimalLP

	// held is the decrease-damping window: no decreases until the hold has
	// expired in wall time AND at least one completed analysis ran at an
	// instant strictly after the increase (the decision-sequence clamp —
	// a virtual clock jumping past the window in one batch still yields
	// one damped analysis).
	c.mu.Lock()
	c.analyses++
	held := cfg.DecreaseHold > 0 && c.hasIncrease &&
		(now.Sub(c.lastIncrease) < cfg.DecreaseHold || c.postIncAn == 0)
	c.mu.Unlock()

	// desired is what this controller wants ignoring any external cap —
	// published via Demand for budget arbitration. It defaults to holding
	// the current level and is overwritten when a proposal is applied.
	desired := cur
	defer func() {
		c.mu.Lock()
		c.demand = Demand{
			Valid: true, Time: now,
			CurrentLP: cur, DesiredLP: desired, OptimalLP: optimal,
			PredictedWCT: predicted, BestWCT: best,
			Goal:      cfg.WCTGoal,
			Overshoot: predictedEnd.Sub(deadline),
		}
		// This analysis completed: it counts against the decision-sequence
		// hold clamp unless it shares the increase's own instant (apply may
		// just have moved lastIncrease to now, which also zeroes the count).
		if c.hasIncrease && now.After(c.lastIncrease) {
			c.postIncAn++
		}
		c.mu.Unlock()
	}()

	// One actuation API: the controller computes the prediction and the
	// envelope; the policy proposes. The paper rule is just the default
	// implementation of the same contract the competitors use.
	pol := cfg.Policy
	if pol == nil {
		pol = paperPolicy
	}
	prop := pol.Observe(pred, Actuation{
		CurLP: cur, MaxLP: cfg.MaxLP,
		Goal: cfg.WCTGoal, Start: start, Now: now,
		Held: held,
	})
	target := prop.LP
	if target < 1 {
		target = cur
	}
	if cfg.MaxLP > 0 && target > cfg.MaxLP {
		target = cfg.MaxLP
	}
	if held && target < cur {
		target = cur // damping window: decreases are ignored, whoever asks
	}
	if target != cur {
		desired = target
		c.apply(now, cur, target, predicted, best, optimal, prop.Reason)
	}
	return true
}

func (c *Controller) apply(now time.Time, from, to int, predicted, best time.Duration, optimal int, reason string) {
	before := c.lever.LP()
	c.lever.SetLP(to)
	after := c.lever.LP()
	c.mu.Lock()
	if to > from {
		c.lastIncrease, c.hasIncrease = now, true
		c.postIncAn = 0
	}
	// Under an external cap the lever may clamp the request: the controller
	// keeps wishing for the same target analysis after analysis with no
	// actual change. Log that intent once, not on every cycle.
	if to == c.lastWant && after == before {
		c.mu.Unlock()
		return
	}
	c.lastWant = to
	c.decisions = append(c.decisions, Decision{
		Time: now, OldLP: from, NewLP: to,
		PredictedWCT: predicted, BestWCT: best, OptimalLP: optimal,
		Reason: reason,
	})
	c.mu.Unlock()
}
