package core

// This file holds the competitor adaptation policies: alternatives to the
// paper's rule that share its actuation contract (Policy) and race against
// it in the tournament harness (internal/tournament). All three are
// deterministic per seed — the stochastic ones draw every perturbation
// from a seeded PRNG — so tournament league tables reproduce exactly.

import (
	"math/rand"
	"sort"
)

// HillClimb is a local-search autotuner in the spirit of the concurrency-
// library autotuners surveyed in PAPERS.md: it does not trust the model's
// optimum, only the feasibility signal at the current LP. On a predicted
// miss it climbs with doubling steps (or jumps back to the cheapest LP it
// has ever seen meet the goal); on slack it probes one step down, with a
// seeded occasional two-step perturbation to escape plateaus.
type HillClimb struct {
	seed    int64
	rng     *rand.Rand
	step    int
	bestLP  int // cheapest LP observed feasible so far
	hasBest bool
}

// NewHillClimb builds a seeded hill-climbing policy.
func NewHillClimb(seed int64) *HillClimb {
	return &HillClimb{seed: seed, rng: rand.New(rand.NewSource(seed)), step: 1}
}

// ClonePolicy implements Cloner: a fresh instance replaying the original
// seed, so a fan-out point (multi-input Stream) hands every controller an
// independent climber.
func (h *HillClimb) ClonePolicy() Policy { return NewHillClimb(h.seed) }

// Observe implements Policy.
func (h *HillClimb) Observe(pred *Prediction, act Actuation) Proposal {
	cur := act.CurLP
	deadline := act.Deadline()
	ceil := act.MaxLP
	if ceil <= 0 {
		ceil = pred.OptimalLP
	}
	if ceil < cur {
		ceil = cur
	}

	if pred.LimitedEnd(cur).After(deadline) { // predicted miss: climb
		if h.step < ceil {
			h.step *= 2
		}
		target := cur + h.step
		reason := "hillclimb: goal missed, climb up"
		if h.hasBest && h.bestLP > cur {
			target = h.bestLP
			reason = "hillclimb: goal missed, return to best-seen LP"
		}
		if target > ceil {
			target = ceil
		}
		if target <= cur {
			return Proposal{LP: cur}
		}
		return Proposal{LP: target, Reason: reason}
	}

	// Feasible at cur: remember the cheapest feasible level, reset the
	// climb step, and probe downward.
	if !h.hasBest || cur < h.bestLP {
		h.bestLP, h.hasBest = cur, true
	}
	h.step = 1
	if act.Held || cur <= 1 {
		return Proposal{LP: cur}
	}
	down := 1
	if h.rng.Intn(4) == 0 {
		down = 2 // seeded perturbation: occasionally probe deeper
	}
	target := cur - down
	if target < 1 {
		target = 1
	}
	if pred.LimitedEnd(target).After(deadline) {
		return Proposal{LP: cur} // probe infeasible; hold
	}
	return Proposal{LP: target, Reason: "hillclimb: slack, probe down"}
}

// banditDecay is the exponential forgetting factor of the arm values and
// banditEps the exploration probability.
const (
	banditDecay = 0.6
	banditEps   = 0.1
)

// Bandit is an epsilon-greedy bandit over a geometric ladder of LP arms
// (1, 2, 4, ... up to the cap), after the RL-style farm managers in
// PAPERS.md. Each analysis first credits the arm in force with a decayed
// reward — the normalized goal margin, minus a small LP-economy cost so
// two goal-hitting arms prefer the cheaper one — then picks the next arm:
// the best-valued one, or (with probability epsilon) a seeded random one.
type Bandit struct {
	seed    int64
	rng     *rand.Rand
	q       map[int]float64 // arm (LP) -> decayed value
	lastArm int             // arm credited on the next Observe (0 = none)
}

// NewBandit builds a seeded epsilon-greedy bandit policy.
func NewBandit(seed int64) *Bandit {
	return &Bandit{seed: seed, rng: rand.New(rand.NewSource(seed)), q: map[int]float64{}}
}

// ClonePolicy implements Cloner: a fresh instance replaying the original
// seed, with empty arm values — behaviourally a newly built bandit.
func (b *Bandit) ClonePolicy() Policy { return NewBandit(b.seed) }

// arms returns the LP ladder up to ceil, ascending.
func (b *Bandit) arms(ceil int) []int {
	var out []int
	for a := 1; a < ceil; a *= 2 {
		out = append(out, a)
	}
	return append(out, ceil)
}

// Observe implements Policy.
func (b *Bandit) Observe(pred *Prediction, act Actuation) Proposal {
	cur := act.CurLP
	deadline := act.Deadline()
	ceil := act.MaxLP
	if ceil <= 0 {
		ceil = pred.OptimalLP
	}
	if ceil < cur {
		ceil = cur
	}
	arms := b.arms(ceil)

	// Credit the arm whose effect this analysis observes. The lever may
	// have been clamped externally, so the reward goes to the actual LP's
	// nearest arm, not the one we asked for.
	if b.lastArm > 0 {
		margin := float64(deadline.Sub(pred.LimitedEnd(cur))) / float64(act.Goal)
		if margin > 1 {
			margin = 1
		}
		if margin < -1 {
			margin = -1
		}
		reward := margin - 0.3*float64(cur)/float64(ceil)
		arm := nearestArm(arms, cur)
		b.q[arm] = banditDecay*b.q[arm] + (1-banditDecay)*reward
	}

	var target int
	reason := "bandit: explore random LP arm"
	if b.rng.Float64() < banditEps {
		target = arms[b.rng.Intn(len(arms))]
	} else {
		reason = "bandit: exploit best-valued LP arm"
		best, bestV := arms[0], -1e18
		for _, a := range arms {
			v, seen := b.q[a]
			if !seen {
				v = 0.5 // optimistic prior: try every arm at least once
			}
			if v > bestV {
				best, bestV = a, v
			}
		}
		target = best
	}
	b.lastArm = target
	if target == cur {
		return Proposal{LP: cur}
	}
	return Proposal{LP: target, Reason: reason}
}

// nearestArm maps an LP to the closest arm on the ladder (ties go down).
func nearestArm(arms []int, lp int) int {
	best, dist := arms[0], lp-arms[0]
	if dist < 0 {
		dist = -dist
	}
	for _, a := range arms[1:] {
		d := lp - a
		if d < 0 {
			d = -d
		}
		if d < dist {
			best, dist = a, d
		}
	}
	return best
}

// Cost weights of CostAware: a missed-deadline second costs missWeight
// times what one worker-second costs.
const (
	costMissWeight = 4.0
	costLPWeight   = 1.0
)

// CostAware trades the WCT concern against an LP·time resource-cost model,
// after Aldinucci et al.'s multi-concern autonomic management (PAPERS.md):
// each analysis picks the LP minimizing
//
//	missWeight·overshoot(lp) + lpWeight·lp·remaining(lp)
//
// over a bounded candidate ladder (powers of two, the neighbours of the
// current LP, and the model optimum). Unlike the paper's rule it will run
// slightly late on purpose when the parallelism needed to hit the goal
// costs more than the overshoot it saves.
type CostAware struct{}

// NewCostAware builds the cost-aware policy (deterministic; no seed).
func NewCostAware() *CostAware { return &CostAware{} }

// Observe implements Policy.
func (*CostAware) Observe(pred *Prediction, act Actuation) Proposal {
	cur := act.CurLP
	deadline := act.Deadline()
	ceil := act.MaxLP
	if ceil <= 0 {
		ceil = pred.OptimalLP
	}
	if ceil < cur {
		ceil = cur
	}

	// Candidate ladder, ascending and deduplicated.
	seen := map[int]bool{}
	var cands []int
	add := func(lp int) {
		if lp >= 1 && lp <= ceil && !seen[lp] {
			seen[lp] = true
			cands = append(cands, lp)
		}
	}
	for a := 1; a < ceil; a *= 2 {
		add(a)
	}
	add(ceil)
	add(cur - 1)
	add(cur)
	add(cur + 1)
	add(pred.OptimalLP)
	sort.Ints(cands)

	best, bestCost := cur, 0.0
	for i, lp := range cands {
		end := pred.LimitedEnd(lp)
		overshoot := end.Sub(deadline)
		if overshoot < 0 {
			overshoot = 0
		}
		remaining := end.Sub(act.Now)
		if remaining < 0 {
			remaining = 0
		}
		cost := costMissWeight*overshoot.Seconds() +
			costLPWeight*float64(lp)*remaining.Seconds()
		if i == 0 || cost < bestCost { // ties keep the smaller LP
			best, bestCost = lp, cost
		}
	}
	if best == cur {
		return Proposal{LP: cur}
	}
	return Proposal{LP: best, Reason: "costaware: minimize overshoot + LP·time cost"}
}
