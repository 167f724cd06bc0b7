package conformance

import (
	"fmt"
	"testing"
	"time"

	"skandium/internal/core"
	"skandium/internal/estimate"
	"skandium/internal/event"
	"skandium/internal/sim"
	"skandium/internal/skel"
	"skandium/internal/statemachine"
)

// reuseCheck is the paper rule with a witness: at every analysis it compares
// the prediction the controller read off its kept ADG with one from a graph
// built from scratch for the same tracker, estimates, start and instant. A
// probe analysis only compares and holds.
type reuseCheck struct {
	core.PaperPolicy
	node     *skel.Node
	tracker  *statemachine.Tracker
	est      *estimate.Registry
	probe    bool
	compared int
	diff     string // first mismatch
}

func (r *reuseCheck) Observe(pred *core.Prediction, act core.Actuation) core.Proposal {
	if r.diff == "" {
		r.diff = r.compare(pred, act)
	}
	r.compared++
	if r.probe {
		return core.Proposal{LP: act.CurLP}
	}
	return r.PaperPolicy.Observe(pred, act)
}

func (r *reuseCheck) compare(kept *core.Prediction, act core.Actuation) string {
	fresh, err := core.ADGPredictor{}.Predict(core.PredictorInput{
		Tracker: r.tracker, Est: r.est, Start: act.Start, Now: act.Now,
	})
	if err != nil {
		return fmt.Sprintf("at %v: fresh build: %v", act.Now, err)
	}
	if !kept.BestEnd.Equal(fresh.BestEnd) || kept.OptimalLP != fresh.OptimalLP {
		return fmt.Sprintf("at %v: best end %v / optimal LP %d, fresh %v / %d",
			act.Now, kept.BestEnd, kept.OptimalLP, fresh.BestEnd, fresh.OptimalLP)
	}
	for lp := 1; lp <= 8; lp++ {
		if k, f := kept.LimitedEnd(lp), fresh.LimitedEnd(lp); !k.Equal(f) {
			return fmt.Sprintf("at %v: LimitedEnd(%d) %v, fresh %v", act.Now, lp, k, f)
		}
	}
	deadline := act.Deadline()
	klp, kok := kept.MinLP(deadline, 8)
	flp, fok := fresh.MinLP(deadline, 8)
	if klp != flp || kok != fok {
		return fmt.Sprintf("at %v: MinLP(%v, 8) = %d, %v; fresh %d, %v", act.Now, deadline, klp, kok, flp, fok)
	}
	return ""
}

// TestReusedADGMatchesFreshBuildOnCorpus runs every tree of the corpus in
// the simulator under a WCT goal placed between its span and its work, so
// the controller adapts. At every analysis the prediction from the
// controller's kept graph — rebuilt in place when the estimates or the tree
// moved — must equal one from a fresh build: BestEnd, OptimalLP,
// LimitedEnd(1..8) and MinLP(deadline, 8). After each analysed event a
// probe analysis at a later instant exercises the path where only the clock
// moved (the graph is rescheduled, not rebuilt) against a fresh build at
// that instant.
func TestReusedADGMatchesFreshBuildOnCorpus(t *testing.T) {
	analyses, probes := 0, 0
	check := func(seed int64, tree *Tree) {
		costs, durs := seededCosts(tree, seed)
		_, work, err := sim.NewEngine(sim.Config{Costs: costs, LP: 1}).Run(tree.Node, tree.Input)
		if err != nil {
			t.Fatalf("seed %d probe lp1 (%s): %v", seed, tree.Node, err)
		}
		_, span, err := sim.NewEngine(sim.Config{Costs: costs, LP: 4096}).Run(tree.Node, tree.Input)
		if err != nil {
			t.Fatalf("seed %d probe span (%s): %v", seed, tree.Node, err)
		}
		goal := max(span+(work-span)/2, time.Millisecond)

		est := estimate.NewRegistry(estimate.DefaultRho)
		for _, m := range tree.Muscles {
			est.InitDuration(m.ID(), durs[m.ID()])
		}
		for id, card := range tree.Cards {
			est.InitCard(id, card)
		}
		tracker := statemachine.NewTracker(est)
		reg := event.NewRegistry()
		eng := sim.NewEngine(sim.Config{Costs: costs, LP: 1, MaxLP: 8, Events: reg})
		pol := &reuseCheck{node: tree.Node, tracker: tracker, est: est}
		if seed%2 == 1 {
			pol.Increase = core.IncreaseMinimal
		}
		ctl := core.NewController(core.Config{WCTGoal: goal, MaxLP: 8, Policy: pol},
			tree.Node, eng, est, tracker, eng.Clock())
		ctl.SetStart(eng.Now())
		core.Attach(reg, tracker, ctl)
		n := 0
		reg.Add(event.Func(func(e *event.Event) any {
			if e.When == event.After && e.Err == nil {
				n++
				pol.probe = true
				if ctl.Analyze(e.Time.Add(time.Duration(1+n%5) * 250 * time.Microsecond)) {
					probes++
				}
				pol.probe = false
			}
			return e.Param
		}))
		if _, _, err := eng.Run(tree.Node, tree.Input); err != nil {
			t.Fatalf("seed %d controlled sim (%s): %v", seed, tree.Node, err)
		}
		if pol.diff != "" {
			t.Fatalf("seed %d (%s) goal %v: kept graph differs from a fresh build %s",
				seed, tree.Node, goal, pol.diff)
		}
		analyses += pol.compared
	}
	for seed := int64(0); seed < fullSeeds; seed++ {
		check(seed, Generate(seed, genDepth))
	}
	for seed := int64(1000); seed < 1000+staticSeeds; seed++ {
		check(seed, GenerateStatic(seed, genDepth))
	}
	t.Logf("%d analyses compared, %d of them probes where only the clock moved", analyses, probes)
	if probes == 0 || analyses == probes {
		t.Fatalf("analyses %d, probes %d: a path went unexercised", analyses, probes)
	}
}
