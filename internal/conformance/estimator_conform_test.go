package conformance

import (
	"reflect"
	"testing"

	"skandium/internal/estimate"
	"skandium/internal/event"
	"skandium/internal/sim"
	"skandium/internal/statemachine"
)

// TestEstimatorMatchesTrackerOnCorpus: a tracker that keeps no activation
// tree (what an execution without a WCT goal gets) teaches its estimators
// exactly what the full tracker teaches its own. Both listen to the same
// events of the same run — seeded virtual-time costs in the simulator at LP
// 3, real clock readings on a one-worker pool (an EWMA depends on the order
// of its observations, and only one worker hands both listeners the same
// order) — over all 240 harness trees, and must end with equal profiles;
// the estimator must end empty.
func TestEstimatorMatchesTrackerOnCorpus(t *testing.T) {
	for i, tree := range allTrees() {
		for _, backend := range []string{"sim", "exec"} {
			fullEst, leanEst := estimate.NewRegistry(estimate.DefaultRho), estimate.NewRegistry(estimate.DefaultRho)
			full, lean := statemachine.NewTracker(fullEst), statemachine.NewEstimator(leanEst)
			reg := event.NewRegistry()
			reg.Add(full.Listener())
			reg.Add(lean.Listener())
			if backend == "sim" {
				costs, _ := seededCosts(tree, int64(i))
				eng := sim.NewEngine(sim.Config{Costs: costs, LP: 3, Events: reg})
				if _, _, err := eng.Run(tree.Node, tree.Input); err != nil {
					t.Fatalf("tree %d sim (%s): %v", i, tree.Node, err)
				}
			} else {
				execRun(t, tree.Node, tree.Input, 1, reg)
			}

			if got, want := leanEst.Snapshot(), fullEst.Snapshot(); !reflect.DeepEqual(got, want) || len(want) == 0 {
				t.Fatalf("tree %d %s (%s): profiles differ\nestimates-only: %v\nfull tracker:   %v",
					i, backend, tree.Node, got, want)
			}
			if n := lean.InstanceCount(); n != 0 {
				t.Fatalf("tree %d %s (%s): estimates-only tracker still holds %d instances", i, backend, tree.Node, n)
			}
			if lean.Root() != nil || full.Root() == nil {
				t.Fatalf("tree %d %s: roots: estimates-only %v, full %v", i, backend, lean.Root(), full.Root())
			}
		}
	}
}
