package core

import (
	"time"

	"skandium/internal/adg"
	"skandium/internal/estimate"
	"skandium/internal/statemachine"
)

// PredictorInput is everything the WCT prediction consults at analysis
// time.
type PredictorInput struct {
	Tracker *statemachine.Tracker
	Est     *estimate.Registry
	Start   time.Time
	Now     time.Time
}

// Prediction is one analysis snapshot. Its closures are only valid until
// the next analysis and must be used from a single goroutine.
type Prediction struct {
	// LimitedEnd predicts the completion time under a fixed LP.
	LimitedEnd func(lp int) time.Time
	// BestEnd is the completion time under infinite parallelism.
	BestEnd time.Time
	// OptimalLP is the paper's optimal LP: the peak of the best-effort
	// timeline. It can exceed the least LP that reaches BestEnd: three
	// independent activities of 10, 1 and 1 ms peak at 3 but reach their
	// best end at LP 2.
	OptimalLP int
	// MinLP returns the smallest lp <= ceil meeting the deadline, if any.
	MinLP func(deadline time.Time, ceil int) (int, bool)
}

// ADGPredictor is the paper's estimation: build the Activity Dependency
// Graph of the live execution, list-schedule it under candidate LPs, and
// read the optimal LP off the best-effort timeline. A Controller keeps one
// graph across analyses; Predict builds a fresh one, the reference the kept
// graph is checked against.
type ADGPredictor struct{}

// Predict produces a snapshot, or an error when estimation is not possible
// yet (missing estimates, nothing started).
func (ADGPredictor) Predict(in PredictorInput) (*Prediction, error) {
	l := newLiveADG()
	if err := l.build(in); err != nil {
		return nil, err
	}
	return &l.pred, nil
}

// liveADG is one ADG and the Prediction read off it, its closures bound
// once. The controller keeps one across analyses: build refills the graph's
// buffers when the estimates or the activation tree changed, reschedule
// re-predicts at another instant when only time moved — the builder never
// reads the analysis instant, the schedulers do.
type liveADG struct {
	g    adg.Graph
	pred Prediction
	ends []lpEnd // LimitedEnd answers at the current instant
}

type lpEnd struct {
	lp  int
	end time.Time
}

func newLiveADG() *liveADG {
	l := &liveADG{}
	l.pred.LimitedEnd = l.limitedEnd
	l.pred.MinLP = l.g.MinLPForGoal
	return l
}

// build snapshots the tracker's tree into the graph and predicts at in.Now.
func (l *liveADG) build(in PredictorInput) error {
	var err error
	// Build under the tracker's lock: workers mutate the instance tree on
	// every event, so the snapshot must be consistent.
	in.Tracker.WithTree(func(roots []*statemachine.Instance) {
		if len(roots) == 0 {
			err = errNoRoot
			return
		}
		err = adg.Builder{Est: in.Est}.LiveInto(&l.g, roots[0], in.Start, in.Now)
	})
	if err != nil {
		return err
	}
	l.reschedule(in.Now)
	return nil
}

// reschedule predicts at now from the graph as built.
func (l *liveADG) reschedule(now time.Time) {
	l.g.Now = now
	l.pred.OptimalLP = l.g.OptimalLP() // leaves the graph scheduled best-effort
	l.pred.BestEnd = l.g.EndTime()
	l.ends = l.ends[:0]
}

// limitedEnd schedules the graph at lp once per instant: one analysis
// probes a handful of LPs (current, half, the minimal-search probes).
func (l *liveADG) limitedEnd(lp int) time.Time {
	for _, e := range l.ends {
		if e.lp == lp {
			return e.end
		}
	}
	l.g.ScheduleLimited(lp)
	end := l.g.EndTime()
	l.ends = append(l.ends, lpEnd{lp, end})
	return end
}
