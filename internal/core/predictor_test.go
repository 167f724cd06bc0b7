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
