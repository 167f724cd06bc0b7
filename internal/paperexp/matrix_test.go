package paperexp

import (
	"fmt"
	"testing"
	"time"

	"skandium/internal/clock"
	"skandium/internal/core"
)

// TestGoldenDecisionLogs pins the deterministic decision sequences of the
// three scenarios: any change to the estimator, ADG, scheduler or policies
// that alters controller behaviour must show up here deliberately.
func TestGoldenDecisionLogs(t *testing.T) {
	golden := map[string]struct {
		spec Spec
		want []string
	}{
		"scenario1": {Scenario1(), []string{
			"7.634s 1->6",
			"8.549s 6->11",
			"8.669s 11->5",
		}},
		"scenario2": {Scenario2(), []string{
			"6.4s 1->7",
			"7.314s 7->3",
			"7.434s 3->1",
		}},
		"scenario3": {Scenario3(), []string{
			"7.634s 1->6",
			"8.549s 6->3",
			"8.669s 3->1",
		}},
	}
	for name, tc := range golden {
		r, err := Run(tc.spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var got []string
		for _, d := range r.Decisions {
			got = append(got, fmt.Sprintf("%v %d->%d",
				d.Time.Sub(clock.Epoch).Round(time.Millisecond), d.OldLP, d.NewLP))
		}
		if len(got) != len(tc.want) {
			t.Errorf("%s: decisions %v, want %v", name, got, tc.want)
			continue
		}
		for i := range tc.want {
			if got[i] != tc.want[i] {
				t.Errorf("%s: decision %d = %q, want %q", name, i, got[i], tc.want[i])
			}
		}
	}
}

// TestPolicyPredictorMatrix: every combination of increase policy and
// decrease policy, predicting with the ADG, still produces a correct
// result, adapts at least once, and lands within 15% of the 9.5 s goal.
func TestPolicyPredictorMatrix(t *testing.T) {
	increases := []core.IncreasePolicy{core.IncreaseOptimal, core.IncreaseMinimal}
	decreases := []core.DecreasePolicy{core.DecreaseHalve, core.DecreaseNone, core.DecreaseExact}
	seqCounts, err := RunFixedLP(Spec{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, inc := range increases {
		for _, dec := range decreases {
			name := fmt.Sprintf("inc=%d/dec=%d", inc, dec)
			spec := Scenario1()
			spec.Policy = core.PaperPolicy{Increase: inc, Decrease: dec}
			r, err := Run(spec)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(r.Decisions) == 0 {
				t.Errorf("%s: never adapted", name)
				continue
			}
			if r.Counts.Total() != seqCounts.Counts.Total() {
				t.Errorf("%s: wrong result", name)
			}
			slack := spec.Goal + spec.Goal*15/100
			if r.Makespan > slack {
				t.Errorf("%s: makespan %v far beyond goal %v", name, r.Makespan, spec.Goal)
			}
			if r.Makespan >= seqCounts.Makespan {
				t.Errorf("%s: no speedup (%v)", name, r.Makespan)
			}
		}
	}
}
