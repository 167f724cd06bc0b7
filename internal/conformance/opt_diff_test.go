package conformance

import (
	"reflect"
	"testing"
	"time"

	"skandium/internal/adg"
	"skandium/internal/clock"
	"skandium/internal/estimate"
	"skandium/internal/event"
	"skandium/internal/exec"
	"skandium/internal/plan"
	"skandium/internal/refeval"
	"skandium/internal/sim"
	"skandium/internal/statemachine"
)

// compilePair compiles one tree twice — raw and optimized — bypassing the
// node's plan cache so both programs coexist for differential runs.
func compilePair(t *testing.T, tree *Tree) (raw, opt *plan.Program) {
	t.Helper()
	raw, err := plan.Compile(tree.Node)
	if err != nil {
		t.Fatalf("compile (%s): %v", tree.Node, err)
	}
	return raw, plan.Optimize(raw)
}

func execRunProgram(t *testing.T, p *plan.Program, input, lp int, reg *event.Registry) any {
	t.Helper()
	pool := exec.NewPool(clock.System, lp, 0)
	defer pool.Close()
	got, err := exec.NewRoot(pool, reg, nil).StartProgram(p, input).Get()
	if err != nil {
		t.Fatalf("exec lp %d (%s): %v", lp, p.Node(), err)
	}
	return got
}

func simRunProgram(t *testing.T, p *plan.Program, input, lp int, reg *event.Registry) (any, time.Duration) {
	t.Helper()
	eng := sim.NewEngine(sim.Config{Costs: unitCosts(), LP: lp, Events: reg})
	start := eng.Now()
	rs, err := eng.RunStreamProgram(p, []sim.Injection{{Param: input}})
	if err != nil {
		t.Fatalf("sim lp %d (%s): %v", lp, p.Node(), err)
	}
	return rs[0].Result, eng.Now().Sub(start)
}

func programShape(t *testing.T, run func(reg *event.Registry)) string {
	t.Helper()
	reg := event.NewRegistry()
	tr := statemachine.NewTracker(estimate.NewRegistry(estimate.DefaultRho))
	reg.Add(tr.Listener())
	run(reg)
	return Shape(tr)
}

// allTrees yields every tree of the harness: the full-algebra seeds and the
// static-subclass seeds — the same 240 programs the backend tests cover.
func allTrees() []*Tree {
	trees := make([]*Tree, 0, fullSeeds+staticSeeds)
	for seed := int64(0); seed < fullSeeds; seed++ {
		trees = append(trees, Generate(seed, genDepth))
	}
	for seed := int64(1000); seed < 1000+staticSeeds; seed++ {
		trees = append(trees, GenerateStatic(seed, genDepth))
	}
	return trees
}

// TestOptimizerObservationEquivalence: for every harness tree, the optimized
// program is observationally identical to the raw one on both execution
// engines — same results (equal to the reference evaluator), same canonical
// activation shapes, and in the simulator the same exact virtual makespans.
// This is the fuzz/property gate for the fusion, specialization and
// pre-sizing passes.
func TestOptimizerObservationEquivalence(t *testing.T) {
	for _, tree := range allTrees() {
		raw, opt := compilePair(t, tree)
		want, err := refeval.Eval(tree.Node, tree.Input)
		if err != nil {
			t.Fatalf("(%s): reference: %v", tree.Node, err)
		}
		for _, lp := range []int{1, 3} {
			if got := execRunProgram(t, raw, tree.Input, lp, nil); !reflect.DeepEqual(got, want) {
				t.Fatalf("lp %d (%s): raw exec %v != reference %v", lp, tree.Node, got, want)
			}
			if got := execRunProgram(t, opt, tree.Input, lp, nil); !reflect.DeepEqual(got, want) {
				t.Fatalf("lp %d (%s): optimized exec %v != reference %v", lp, tree.Node, got, want)
			}
			rawRes, rawMs := simRunProgram(t, raw, tree.Input, lp, nil)
			optRes, optMs := simRunProgram(t, opt, tree.Input, lp, nil)
			if !reflect.DeepEqual(optRes, want) || !reflect.DeepEqual(rawRes, want) {
				t.Fatalf("lp %d (%s): sim results raw=%v opt=%v != reference %v",
					lp, tree.Node, rawRes, optRes, want)
			}
			if rawMs != optMs {
				t.Fatalf("lp %d (%s): optimized sim makespan %v != raw %v",
					lp, tree.Node, optMs, rawMs)
			}
		}

		rawExec := programShape(t, func(reg *event.Registry) { execRunProgram(t, raw, tree.Input, 3, reg) })
		optExec := programShape(t, func(reg *event.Registry) { execRunProgram(t, opt, tree.Input, 3, reg) })
		if rawExec != optExec || rawExec == "" {
			t.Fatalf("(%s): exec shape changed under optimization\nraw:\n%s\nopt:\n%s",
				tree.Node, rawExec, optExec)
		}
		rawSim := programShape(t, func(reg *event.Registry) { simRunProgram(t, raw, tree.Input, 3, reg) })
		optSim := programShape(t, func(reg *event.Registry) { simRunProgram(t, opt, tree.Input, 3, reg) })
		if rawSim != optSim || rawSim != rawExec {
			t.Fatalf("(%s): sim shape changed under optimization\nraw:\n%s\nopt:\n%s",
				tree.Node, rawSim, optSim)
		}
	}
}

// TestOptimizerEstimatesEquivalent: the closed-form analytic annotations
// produce exactly the recursive estimator's numbers on every static tree —
// work and span of the optimized program equal those of the raw walk.
func TestOptimizerEstimatesEquivalent(t *testing.T) {
	for seed := int64(1000); seed < 1000+staticSeeds; seed++ {
		tree := GenerateStatic(seed, genDepth)
		raw, opt := compilePair(t, tree)
		est := seedEstimates(tree)

		rawWork, err := adg.SeqEstimateProgram(est, raw)
		if err != nil {
			t.Fatalf("seed %d (%s): raw work: %v", seed, tree.Node, err)
		}
		optWork, err := adg.SeqEstimateProgram(est, opt)
		if err != nil {
			t.Fatalf("seed %d (%s): optimized work: %v", seed, tree.Node, err)
		}
		if rawWork != optWork {
			t.Fatalf("seed %d (%s): work %v (optimized) != %v (raw)", seed, tree.Node, optWork, rawWork)
		}
		rawSpan, err := adg.SpanEstimateProgram(est, raw)
		if err != nil {
			t.Fatalf("seed %d (%s): raw span: %v", seed, tree.Node, err)
		}
		optSpan, err := adg.SpanEstimateProgram(est, opt)
		if err != nil {
			t.Fatalf("seed %d (%s): optimized span: %v", seed, tree.Node, err)
		}
		if rawSpan != optSpan {
			t.Fatalf("seed %d (%s): span %v (optimized) != %v (raw)", seed, tree.Node, optSpan, rawSpan)
		}
	}
}
