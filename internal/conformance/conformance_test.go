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
	"skandium/internal/muscle"
	"skandium/internal/plan"
	"skandium/internal/sim"
	"skandium/internal/skel"
	"skandium/internal/statemachine"
)

// The harness runs hundreds of seeded random trees through every backend.
// fullSeeds exercises the whole algebra; staticSeeds the analytic subclass
// where closed-form estimates are exact.
const (
	fullSeeds   = 120
	staticSeeds = 120
	genDepth    = 3
)

// unitCosts declares 1ms for every muscle invocation, making simulated
// makespans pure functions of program structure.
func unitCosts() sim.CostModel {
	return sim.CostFunc(func(*muscle.Muscle, any) time.Duration { return time.Millisecond })
}

func execRun(t *testing.T, node *skel.Node, input, lp int, reg *event.Registry) any {
	t.Helper()
	pool := exec.NewPool(clock.System, lp, 0)
	defer pool.Close()
	got, err := exec.NewRoot(pool, reg, nil).Start(node, input).Get()
	if err != nil {
		t.Fatalf("exec lp %d (%s): %v", lp, node, err)
	}
	return got
}

func simRun(t *testing.T, node *skel.Node, input, lp int, reg *event.Registry) (any, time.Duration, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine(sim.Config{Costs: unitCosts(), LP: lp, Events: reg})
	got, makespan, err := eng.Run(node, input)
	if err != nil {
		t.Fatalf("sim lp %d (%s): %v", lp, node, err)
	}
	return got, makespan, eng
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

// programShape runs one execution under a fresh tracker and returns the
// canonical shape of the activation tree it observed.
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

// TestBackendsComputeReferenceResults: for seeded random trees over the
// full algebra, the pool interpreter (at several LPs) and the simulator (at
// several LPs) compute exactly the reference evaluator's result.
func TestBackendsComputeReferenceResults(t *testing.T) {
	for seed := int64(0); seed < fullSeeds; seed++ {
		tree := Generate(seed, genDepth)
		want, err := refEval(tree.Node, tree.Input)
		if err != nil {
			t.Fatalf("seed %d (%s): reference: %v", seed, tree.Node, err)
		}
		for _, lp := range []int{1, 3} {
			if got := execRun(t, tree.Node, tree.Input, lp, nil); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d lp %d (%s) input %d: exec %v != reference %v",
					seed, lp, tree.Node, tree.Input, got, want)
			}
			got, _, _ := simRun(t, tree.Node, tree.Input, lp, nil)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d lp %d (%s) input %d: sim %v != reference %v",
					seed, lp, tree.Node, tree.Input, got, want)
			}
		}
	}
}

// TestActivationShapesAgree: the canonical activation-tree shape recorded
// by the state-machine tracker is identical between the concurrent pool
// interpreter and the simulator — i.e. both backends unfold the compiled
// program into the same activations with the same structural slots,
// cardinalities and verdicts, independent of scheduling.
func TestActivationShapesAgree(t *testing.T) {
	for seed := int64(0); seed < fullSeeds; seed++ {
		tree := Generate(seed, genDepth)

		shape := func(attach func(reg *event.Registry)) string {
			reg := event.NewRegistry()
			tr := statemachine.NewTracker(estimate.NewRegistry(estimate.DefaultRho))
			reg.Add(tr.Listener())
			attach(reg)
			return Shape(tr)
		}
		execShape := shape(func(reg *event.Registry) {
			execRun(t, tree.Node, tree.Input, 3, reg)
		})
		simShape := shape(func(reg *event.Registry) {
			simRun(t, tree.Node, tree.Input, 3, reg)
		})
		simSeqShape := shape(func(reg *event.Registry) {
			simRun(t, tree.Node, tree.Input, 1, reg)
		})
		if execShape != simShape {
			t.Fatalf("seed %d (%s): exec shape differs from sim shape\nexec:\n%s\nsim:\n%s",
				seed, tree.Node, execShape, simShape)
		}
		if simShape != simSeqShape {
			t.Fatalf("seed %d (%s): sim shape varies with LP\nlp3:\n%s\nlp1:\n%s",
				seed, tree.Node, simShape, simSeqShape)
		}
		if execShape == "" {
			t.Fatalf("seed %d: empty shape", seed)
		}
	}
}

// TestLiveADGMatchesSimMakespan: an ADG built from the tracker of a
// *completed* simulated execution consists solely of Done activities, so
// its WCT must equal the simulator's makespan exactly — the timeline the
// ADG reconstructs is the timeline the simulator executed.
func TestLiveADGMatchesSimMakespan(t *testing.T) {
	for seed := int64(0); seed < fullSeeds; seed++ {
		tree := Generate(seed, genDepth)

		est := estimate.NewRegistry(estimate.DefaultRho)
		tr := statemachine.NewTracker(est)
		reg := event.NewRegistry()
		reg.Add(tr.Listener())

		eng := sim.NewEngine(sim.Config{Costs: unitCosts(), LP: 3, Events: reg})
		start := eng.Now()
		_, makespan, err := eng.Run(tree.Node, tree.Input)
		if err != nil {
			t.Fatalf("seed %d (%s): sim: %v", seed, tree.Node, err)
		}

		g, err := adg.Builder{Est: est}.BuildLive(tr.Root(), start, eng.Now())
		if err != nil {
			t.Fatalf("seed %d (%s): BuildLive: %v", seed, tree.Node, err)
		}
		g.ScheduleBestEffort()
		if wct := g.WCT(); wct != makespan {
			t.Fatalf("seed %d (%s): live ADG WCT %v != sim makespan %v",
				seed, tree.Node, wct, makespan)
		}
		// With every activity Done the schedule is history, not a plan:
		// the LP cap must not change it.
		g.ScheduleLimited(1)
		if wct := g.WCT(); wct != makespan {
			t.Fatalf("seed %d (%s): completed ADG WCT %v under LP=1 != makespan %v",
				seed, tree.Node, wct, makespan)
		}
	}
}

// seedEstimates initializes the registry with the exact unit costs and the
// exact split cardinalities of a static tree, so analytic estimates and
// virtual ADGs are exact rather than learned.
func seedEstimates(tree *Tree) *estimate.Registry {
	est := estimate.NewRegistry(estimate.DefaultRho)
	for _, m := range tree.Muscles {
		est.InitDuration(m.ID(), time.Millisecond)
	}
	for id, card := range tree.Cards {
		est.InitCard(id, card)
	}
	return est
}

// TestAnalyticEstimatesExactOnStaticTrees: on the subclass with no
// data-dependent control flow and fixed-cardinality splits, the closed-form
// estimators and the virtual ADG schedules must match simulated makespans
// exactly:
//
//   - SeqEstimate (work) == sim makespan at LP=1 == virtual ADG under
//     ScheduleLimited(1);
//   - SpanEstimate (span) == sim makespan at effectively-infinite LP ==
//     virtual ADG under ScheduleBestEffort.
func TestAnalyticEstimatesExactOnStaticTrees(t *testing.T) {
	for seed := int64(1000); seed < 1000+staticSeeds; seed++ {
		tree := GenerateStatic(seed, genDepth)
		est := seedEstimates(tree)

		work, err := adg.SeqEstimate(est, tree.Node)
		if err != nil {
			t.Fatalf("seed %d (%s): SeqEstimate: %v", seed, tree.Node, err)
		}
		span, err := adg.SpanEstimate(est, tree.Node)
		if err != nil {
			t.Fatalf("seed %d (%s): SpanEstimate: %v", seed, tree.Node, err)
		}
		if span > work {
			t.Fatalf("seed %d (%s): span %v exceeds work %v", seed, tree.Node, span, work)
		}

		_, seqMakespan, _ := simRun(t, tree.Node, tree.Input, 1, nil)
		if seqMakespan != work {
			t.Fatalf("seed %d (%s): sim LP=1 makespan %v != SeqEstimate %v",
				seed, tree.Node, seqMakespan, work)
		}
		_, parMakespan, _ := simRun(t, tree.Node, tree.Input, 4096, nil)
		if parMakespan != span {
			t.Fatalf("seed %d (%s): sim LP=4096 makespan %v != SpanEstimate %v",
				seed, tree.Node, parMakespan, span)
		}

		g, err := adg.Builder{Est: est}.BuildVirtual(tree.Node, clock.Epoch)
		if err != nil {
			t.Fatalf("seed %d (%s): BuildVirtual: %v", seed, tree.Node, err)
		}
		g.ScheduleBestEffort()
		if wct := g.WCT(); wct != span {
			t.Fatalf("seed %d (%s): virtual ADG best-effort WCT %v != SpanEstimate %v",
				seed, tree.Node, wct, span)
		}
		g.ScheduleLimited(1)
		if wct := g.WCT(); wct != work {
			t.Fatalf("seed %d (%s): virtual ADG LP=1 WCT %v != SeqEstimate %v",
				seed, tree.Node, wct, work)
		}
	}
}
