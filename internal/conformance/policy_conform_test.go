package conformance

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"skandium/internal/core"
	"skandium/internal/estimate"
	"skandium/internal/event"
	"skandium/internal/muscle"
	"skandium/internal/sim"
	"skandium/internal/statemachine"
)

// legacyPaperPolicy is the pre-refactor controller decision logic,
// transcribed verbatim from the inline branches of Controller.Analyze
// before the Policy extraction. It is the oracle the refactored default
// (PaperPolicy through the one actuation API) must match decision-for-
// decision across the conformance corpus.
type legacyPaperPolicy struct {
	inc core.IncreasePolicy
	dec core.DecreasePolicy
}

const legacyUnreachableSlack = 0.05

func (l legacyPaperPolicy) Observe(pred *core.Prediction, act core.Actuation) core.Proposal {
	cur := act.CurLP
	deadline := act.Start.Add(act.Goal)
	ceil := act.MaxLP
	if ceil <= 0 {
		ceil = pred.OptimalLP
	}
	if pred.LimitedEnd(cur).After(deadline) {
		target := cur
		reason := ""
		switch l.inc {
		case core.IncreaseOptimal:
			target = pred.OptimalLP
			reason = "goal missed: raise to optimal LP"
		case core.IncreaseMinimal:
			if lp, ok := pred.MinLP(deadline, ceil); ok {
				target = lp
				reason = "goal missed: raise to minimal sufficient LP"
			} else {
				slack := time.Duration(float64(pred.BestEnd.Sub(act.Now)) * legacyUnreachableSlack)
				if lp, ok := pred.MinLP(pred.BestEnd.Add(slack), ceil); ok {
					target = lp
				} else {
					target = pred.OptimalLP
				}
				reason = "goal unreachable: raise to minimal LP near best effort"
			}
		}
		if act.MaxLP > 0 && target > act.MaxLP {
			target = act.MaxLP
		}
		if target > cur {
			return core.Proposal{LP: target, Reason: reason}
		}
		return core.Proposal{LP: cur}
	}
	if act.Held {
		return core.Proposal{LP: cur}
	}
	switch l.dec {
	case core.DecreaseNone:
		return core.Proposal{LP: cur}
	case core.DecreaseHalve:
		half := cur / 2
		if half < 1 || half == cur {
			return core.Proposal{LP: cur}
		}
		if !pred.LimitedEnd(half).After(deadline) {
			return core.Proposal{LP: half, Reason: "goal met with half the threads: halve LP"}
		}
	case core.DecreaseExact:
		if lp, ok := pred.MinLP(deadline, cur); ok && lp < cur {
			return core.Proposal{LP: lp, Reason: "goal met with fewer threads: drop to minimum"}
		}
	}
	return core.Proposal{LP: cur}
}

// seededCosts assigns every muscle of a tree a deterministic 1-5ms cost.
func seededCosts(tree *Tree, seed int64) (sim.CostModel, map[muscle.ID]time.Duration) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	d := make(map[muscle.ID]time.Duration, len(tree.Muscles))
	for _, m := range tree.Muscles {
		d[m.ID()] = time.Duration(1+rng.Intn(5)) * time.Millisecond
	}
	return sim.CostFunc(func(m *muscle.Muscle, _ any) time.Duration { return d[m.ID()] }), d
}

// controlledRun simulates one tree under an autonomic controller and
// returns its decision log.
func controlledRun(t *testing.T, tree *Tree, costs sim.CostModel,
	durs map[muscle.ID]time.Duration, cfg core.Config) []core.Decision {
	t.Helper()
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
	ctl := core.NewController(cfg, tree.Node, eng, est, tracker, eng.Clock())
	ctl.SetStart(eng.Now())
	core.Attach(reg, tracker, ctl)
	if _, _, err := eng.Run(tree.Node, tree.Input); err != nil {
		t.Fatalf("controlled sim (%s): %v", tree.Node, err)
	}
	return ctl.Decisions()
}

// TestPaperPolicyDecisionsMatchLegacyOnCorpus drives the refactored paper
// policy (the default Config path) and the pre-refactor decision logic (the
// verbatim legacy oracle above, via Config.Policy) through the full 240-tree
// conformance corpus and asserts the Decision sequences are byte-identical —
// the guarantee PR 4/9 relied on, carried across the Policy refactor. Every
// increase/decrease ablation pair is cycled across the corpus.
func TestPaperPolicyDecisionsMatchLegacyOnCorpus(t *testing.T) {
	combos := []struct {
		inc core.IncreasePolicy
		dec core.DecreasePolicy
	}{
		{core.IncreaseOptimal, core.DecreaseHalve},
		{core.IncreaseMinimal, core.DecreaseHalve},
		{core.IncreaseOptimal, core.DecreaseNone},
		{core.IncreaseMinimal, core.DecreaseNone},
		{core.IncreaseOptimal, core.DecreaseExact},
		{core.IncreaseMinimal, core.DecreaseExact},
	}
	fracs := []float64{0.3, 0.5, 0.8} // goal position between span and work

	total := 0
	check := func(seed int64, tree *Tree) {
		costs, durs := seededCosts(tree, seed)
		// Probe the tree's sequential work and unbounded span to place an
		// adaptation-provoking goal between them.
		eng := sim.NewEngine(sim.Config{Costs: costs, LP: 1})
		if _, work, err := eng.Run(tree.Node, tree.Input); err != nil {
			t.Fatalf("seed %d probe lp1 (%s): %v", seed, tree.Node, err)
		} else {
			eng2 := sim.NewEngine(sim.Config{Costs: costs, LP: 4096})
			_, span, err := eng2.Run(tree.Node, tree.Input)
			if err != nil {
				t.Fatalf("seed %d probe span (%s): %v", seed, tree.Node, err)
			}
			frac := fracs[int(seed)%len(fracs)]
			goal := span + time.Duration(float64(work-span)*frac)
			if goal <= 0 {
				goal = work
			}
			combo := combos[int(seed)%len(combos)]
			cfg := core.Config{WCTGoal: goal, MaxLP: 8,
				Policy: core.PaperPolicy{Increase: combo.inc, Decrease: combo.dec}}
			got := controlledRun(t, tree, costs, durs, cfg)

			legacyCfg := cfg
			legacyCfg.Policy = legacyPaperPolicy{inc: combo.inc, dec: combo.dec}
			want := controlledRun(t, tree, costs, durs, legacyCfg)

			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d (%s) goal %v inc=%d dec=%d: decisions diverge\nrefactored: %v\nlegacy:     %v",
					seed, tree.Node, goal, combo.inc, combo.dec, got, want)
			}
			total += len(got)
		}
	}

	for seed := int64(0); seed < fullSeeds; seed++ {
		check(seed, Generate(seed, genDepth))
	}
	for seed := int64(1000); seed < 1000+staticSeeds; seed++ {
		check(seed, GenerateStatic(seed, genDepth))
	}
	if total == 0 {
		t.Fatal("corpus produced no adaptation decisions: the regression test is vacuous")
	}
}
