package core

import (
	"time"

	"skandium/internal/adg"
	"skandium/internal/estimate"
	"skandium/internal/skel"
	"skandium/internal/statemachine"
)

// PredictorInput is everything a WCT predictor may consult at analysis
// time.
type PredictorInput struct {
	Node    *skel.Node
	Tracker *statemachine.Tracker
	Est     *estimate.Registry
	Start   time.Time
	Now     time.Time
	// Budget caps analysis cost for graph-based predictors (0 = default).
	Budget int
}

// Prediction is one analysis snapshot. Its closures are only valid until
// the next analysis and must be used from a single goroutine.
type Prediction struct {
	// LimitedEnd predicts the completion time under a fixed LP.
	LimitedEnd func(lp int) time.Time
	// BestEnd is the completion time under infinite parallelism.
	BestEnd time.Time
	// OptimalLP is the smallest LP that achieves BestEnd (approximately,
	// for analytic predictors).
	OptimalLP int
	// MinLP returns the smallest lp <= ceil meeting the deadline, if any.
	MinLP func(deadline time.Time, ceil int) (int, bool)
}

// Predictor turns execution state into WCT predictions. The paper's §6
// lists "analyses of different WCT estimation algorithms comparing its
// overhead costs" as ongoing work; this interface is where the variants
// plug in.
type Predictor interface {
	// Name identifies the predictor in logs and benchmarks.
	Name() string
	// Predict produces a snapshot, or an error when estimation is not
	// possible yet (missing estimates, nothing started).
	Predict(in PredictorInput) (*Prediction, error)
}

// --- ADG predictor (the paper's algorithm) --------------------------------------

// ADGPredictor implements the paper's estimation: build the Activity
// Dependency Graph of the live execution, list-schedule it under candidate
// LPs, and read the optimal LP off the best-effort timeline. Most accurate,
// cost grows with the remaining structure (bounded by Budget). A Controller
// using it keeps one graph across analyses; Predict builds a fresh one.
type ADGPredictor struct{}

// Name implements Predictor.
func (ADGPredictor) Name() string { return "adg" }

// Predict implements Predictor.
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
		err = adg.Builder{Est: in.Est, Budget: in.Budget}.LiveInto(&l.g, roots[0], in.Start, in.Now)
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

// --- work/span predictor (cheap analytic variant) --------------------------------

// WorkSpanPredictor is the O(|∆|) analytic alternative: it models the
// remaining computation by two scalars — work (total sequential time left)
// and span (critical path left) — and predicts via Brent's bound
//
//	T(lp) ≈ max(span, work/lp).
//
// Remaining work is the analytic sequential estimate minus the muscle time
// already observed; remaining span assumes the critical path advanced at
// wall-clock rate. Far cheaper than the ADG and correspondingly cruder: it
// ignores dependency shapes, so it can both under- and over-estimate.
// This is the "sequential work + parallel penalty" family of Lobachev et
// al. that the paper's related work contrasts with the ADG.
type WorkSpanPredictor struct{}

// Name implements Predictor.
func (WorkSpanPredictor) Name() string { return "workspan" }

// Predict implements Predictor.
func (WorkSpanPredictor) Predict(in PredictorInput) (*Prediction, error) {
	work, err := adg.SeqEstimate(in.Est, in.Node)
	if err != nil {
		return nil, err
	}
	span, err := adg.SpanEstimate(in.Est, in.Node)
	if err != nil {
		return nil, err
	}
	observed := in.Tracker.ObservedWork()
	elapsed := in.Now.Sub(in.Start)
	remWork := work - observed
	if remWork < 0 {
		remWork = 0
	}
	remSpan := span - elapsed
	if remSpan < 0 {
		remSpan = 0
	}
	limited := func(lp int) time.Time {
		if lp < 1 {
			lp = 1
		}
		t := remWork / time.Duration(lp)
		if remSpan > t {
			t = remSpan
		}
		return in.Now.Add(t)
	}
	optimal := 1
	if remSpan > 0 {
		optimal = int((remWork + remSpan - 1) / remSpan)
	} else if remWork > 0 {
		optimal = 64 // span exhausted but work remains: saturate
	}
	if optimal < 1 {
		optimal = 1
	}
	return &Prediction{
		LimitedEnd: limited,
		BestEnd:    in.Now.Add(remSpan),
		OptimalLP:  optimal,
		MinLP: func(deadline time.Time, ceil int) (int, bool) {
			if ceil < 1 {
				ceil = 1
			}
			budget := deadline.Sub(in.Now)
			if budget < remSpan || budget <= 0 {
				return ceil, false
			}
			if remWork == 0 {
				return 1, true
			}
			lp := int((remWork + budget - 1) / budget)
			if lp < 1 {
				lp = 1
			}
			if lp > ceil {
				// work/ceil might still fit if span dominates.
				if !limited(ceil).After(deadline) {
					return ceil, true
				}
				return ceil, false
			}
			return lp, true
		},
	}, nil
}

var (
	_ Predictor = ADGPredictor{}
	_ Predictor = WorkSpanPredictor{}
)
