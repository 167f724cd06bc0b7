package core

import (
	"testing"

	"skandium/internal/clock"
)

// TestADGPredictorMatchesFig1 pins the default predictor to the paper's
// worked example: at the Fig. 1 snapshot, limited(2) predicts 115, best
// effort 100, optimal LP 3.
func TestADGPredictorMatchesFig1(t *testing.T) {
	s := newFig1Setup()
	s.replayUntil70()
	pred, err := ADGPredictor{}.Predict(PredictorInput{
		Node:    s.outer,
		Tracker: s.tr,
		Est:     s.est,
		Start:   clock.Epoch,
		Now:     clock.Epoch.Add(u(70)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := pred.LimitedEnd(2).Sub(clock.Epoch); got != u(115) {
		t.Fatalf("limited(2) = %v, want 115ms", got)
	}
	if got := pred.BestEnd.Sub(clock.Epoch); got != u(100) {
		t.Fatalf("best = %v, want 100ms", got)
	}
	if pred.OptimalLP != 3 {
		t.Fatalf("optimal LP = %d, want 3", pred.OptimalLP)
	}
	if lp, ok := pred.MinLP(clock.Epoch.Add(u(100)), 16); !ok || lp != 3 {
		t.Fatalf("minLP = %d/%v, want 3", lp, ok)
	}
}

// TestWorkSpanPredictorFig1: the analytic predictor on the same snapshot.
// Work = 195ms total, observed by t=70 is 10+10+10+6*15+5 = 125 plus the
// running split contributes nothing yet -> remaining work 70ms. Span =
// 10+10+15+5+5 = 45ms, elapsed 70 -> remaining span 0, treated as
// saturated.
func TestWorkSpanPredictorFig1(t *testing.T) {
	s := newFig1Setup()
	s.replayUntil70()
	now := clock.Epoch.Add(u(70))
	pred, err := WorkSpanPredictor{}.Predict(PredictorInput{
		Node:    s.outer,
		Tracker: s.tr,
		Est:     s.est,
		Start:   clock.Epoch,
		Now:     now,
	})
	if err != nil {
		t.Fatal(err)
	}
	// remaining work = 195 - 125 = 70ms; span exhausted.
	if got := pred.LimitedEnd(1).Sub(now); got != u(70) {
		t.Fatalf("limited(1) remaining = %v, want 70ms", got)
	}
	if got := pred.LimitedEnd(2).Sub(now); got != u(35) {
		t.Fatalf("limited(2) remaining = %v, want 35ms", got)
	}
	// Best end with zero remaining span is "now" — the analytic model's
	// known crudeness once elapsed exceeds the span.
	if pred.BestEnd != now {
		t.Fatalf("best end = %v, want now", pred.BestEnd)
	}
	// MinLP for a 100ms deadline: 70ms work over 30ms budget -> ceil = 3.
	if lp, ok := pred.MinLP(clock.Epoch.Add(u(100)), 16); !ok || lp != 3 {
		t.Fatalf("minLP = %d/%v, want 3", lp, ok)
	}
	// Infeasible deadline.
	if _, ok := pred.MinLP(now.Add(-u(1)), 16); ok {
		t.Fatal("past deadline reported feasible")
	}
}

// TestWorkSpanPredictorFresh: before anything ran (but with initialized
// estimates), remaining work and span equal the full program estimates.
func TestWorkSpanPredictorFresh(t *testing.T) {
	s := newFig1Setup()
	// Root must exist for the ADG predictor but not for work/span; still,
	// emit the opening event so both see a started execution.
	s.emit(s.outer, 0, -1, 0, 0, 0, 0)
	pred, err := WorkSpanPredictor{}.Predict(PredictorInput{
		Node: s.outer, Tracker: s.tr, Est: s.est,
		Start: clock.Epoch, Now: clock.Epoch,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := pred.LimitedEnd(1).Sub(clock.Epoch); got != u(195) {
		t.Fatalf("limited(1) = %v, want 195ms (full work)", got)
	}
	if got := pred.BestEnd.Sub(clock.Epoch); got != u(45) {
		t.Fatalf("best = %v, want 45ms (full span)", got)
	}
	// Optimal ≈ ceil(work/span) = ceil(195/45) = 5.
	if pred.OptimalLP != 5 {
		t.Fatalf("optimal = %d, want 5", pred.OptimalLP)
	}
}

// TestControllerWithWorkSpanPredictor: the full loop still adapts and the
// Fig. 1 §4 example raises LP under the analytic model too.
func TestControllerWithWorkSpanPredictor(t *testing.T) {
	s := newFig1Setup()
	s.replayUntil70()
	lever := &fakeLever{lp: 2}
	ctl := NewController(Config{WCTGoal: u(100), MaxLP: 16, Policy: PaperPolicy{Increase: IncreaseMinimal},
		Predictor: WorkSpanPredictor{}},
		s.outer, lever, s.est, s.tr, clock.NewVirtual(clock.Epoch))
	ctl.SetStart(clock.Epoch)
	if !ctl.Analyze(clock.Epoch.Add(u(70))) {
		t.Fatal("analysis did not run")
	}
	// limited(2) = 70+35 = 105 > 100 -> raise to minLP 3.
	if lever.LP() != 3 {
		t.Fatalf("LP = %d, want 3", lever.LP())
	}
}

// TestPredictorNames: names identify variants in logs/benches.
func TestPredictorNames(t *testing.T) {
	if (ADGPredictor{}).Name() != "adg" || (WorkSpanPredictor{}).Name() != "workspan" {
		t.Fatal("predictor names changed")
	}
}
