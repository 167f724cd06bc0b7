package core

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Policy is the single actuation contract of the adaptation stack: the
// controller drives Observe once per analysis (given the latest WCT
// prediction, propose a level of parallelism). The paper's asymmetric rule,
// its ablation variants and the competitor policies are all implementations
// of this one interface — controller.go special-cases none of them. The
// registry key (NewPolicy, Policies) is the one name a policy answers to.
//
// Stateful policies (hill-climber, bandit) are driven by exactly one
// controller at a time: the controller serializes analyses, but one policy
// value must not be shared across concurrently executing controllers. A
// fan-out point that hands one configured value to many controllers (a
// multi-input Stream) must replicate it first — see Cloner and ClonePolicy.
type Policy interface {
	// Observe proposes an LP for the actuation view act given the current
	// prediction. Returning Proposal{LP: act.CurLP} (or LP < 1) holds.
	Observe(pred *Prediction, act Actuation) Proposal
}

// Cloner is the optional replication face of a stateful Policy. Fan-out
// points that drive one configured policy value with many concurrent
// controllers call ClonePolicy before handing the value to each controller;
// a stateful policy implements Cloner to return a fresh, independent
// instance. The built-ins replay their original seed, so every clone
// produces the same proposal stream as a newly built policy.
type Cloner interface {
	ClonePolicy() Policy
}

// ClonePolicy returns an instance of p safe to hand to a new controller:
// p.ClonePolicy() when p is stateful (implements Cloner), p itself when it
// is stateless and shareable. A nil p stays nil.
func ClonePolicy(p Policy) Policy {
	if c, ok := p.(Cloner); ok {
		return c.ClonePolicy()
	}
	return p
}

// Actuation is the controller-side view a policy observes: the current
// lever position and the QoS envelope the proposal must respect.
type Actuation struct {
	// CurLP is the lever's level of parallelism at analysis time.
	CurLP int
	// MaxLP is the LP QoS cap (0 = uncapped). The controller clamps
	// proposals to it regardless; policies may use it to bound search.
	MaxLP int
	// Goal is the WCT goal in force, measured from Start.
	Goal time.Duration
	// Start is the execution start; Now the analysis instant.
	Start time.Time
	Now   time.Time
	// Held reports that the decrease-damping window after an increase is
	// still in force: the controller will ignore any proposal below CurLP.
	Held bool
}

// Deadline is the instant the WCT goal expires.
func (a Actuation) Deadline() time.Time { return a.Start.Add(a.Goal) }

// Proposal is a policy's answer to one Observe call.
type Proposal struct {
	// LP is the proposed level of parallelism. LP < 1 or LP == CurLP holds
	// the current level.
	LP int
	// Reason is the decision-log annotation when the proposal is applied.
	Reason string
}

// PaperPolicy is the paper's §4 autonomic rule as a Policy: raise LP on a
// predicted goal miss (to the optimal level, or minimally under
// IncreaseMinimal), lower it conservatively when the goal survives with
// fewer threads. The zero value is the paper default (raise to optimal,
// halve on slack).
type PaperPolicy struct {
	Increase IncreasePolicy
	Decrease DecreasePolicy
}

// Observe implements the per-analysis face of the paper's rule.
func (p PaperPolicy) Observe(pred *Prediction, act Actuation) Proposal {
	cur := act.CurLP
	deadline := act.Deadline()
	optimal := pred.OptimalLP

	ceil := act.MaxLP
	if ceil <= 0 {
		ceil = optimal
	}

	if pred.LimitedEnd(cur).After(deadline) {
		// The goal will be missed at the current LP: self-optimize up.
		target := cur
		reason := ""
		switch p.Increase {
		case IncreaseOptimal:
			target = optimal
			reason = "goal missed: raise to optimal LP"
		case IncreaseMinimal:
			if lp, ok := pred.MinLP(deadline, ceil); ok {
				target = lp
				reason = "goal missed: raise to minimal sufficient LP"
			} else {
				// Even infinite parallelism misses the goal: fall back to
				// the smallest LP that gets within a few percent of the
				// best possible end time (frugal version of "raise to
				// optimal" — hitting the best-effort end exactly would
				// need peak parallelism for no real gain).
				slack := time.Duration(float64(pred.BestEnd.Sub(act.Now)) * unreachableSlack)
				if lp, ok := pred.MinLP(pred.BestEnd.Add(slack), ceil); ok {
					target = lp
				} else {
					target = optimal
				}
				reason = "goal unreachable: raise to minimal LP near best effort"
			}
		}
		if act.MaxLP > 0 && target > act.MaxLP {
			target = act.MaxLP
		}
		if target > cur {
			return Proposal{LP: target, Reason: reason}
		}
		return Proposal{LP: cur}
	}

	// On track: consider lowering LP (self-configuration toward economy).
	if act.Held {
		return Proposal{LP: cur}
	}
	switch p.Decrease {
	case DecreaseNone:
		return Proposal{LP: cur}
	case DecreaseHalve:
		half := cur / 2
		if half < 1 || half == cur {
			return Proposal{LP: cur}
		}
		if !pred.LimitedEnd(half).After(deadline) {
			return Proposal{LP: half, Reason: "goal met with half the threads: halve LP"}
		}
	case DecreaseExact:
		if lp, ok := pred.MinLP(deadline, cur); ok && lp < cur {
			return Proposal{LP: lp, Reason: "goal met with fewer threads: drop to minimum"}
		}
	}
	return Proposal{LP: cur}
}

// policyFactory builds a registered policy from a seed.
type policyFactory func(seed int64) Policy

// policyRegistry maps names to factories: the built-ins, fixed at compile
// time.
var policyRegistry = map[string]policyFactory{
	"paper": func(int64) Policy {
		return PaperPolicy{Increase: IncreaseOptimal, Decrease: DecreaseHalve}
	},
	"paper-minimal": func(int64) Policy {
		return PaperPolicy{Increase: IncreaseMinimal, Decrease: DecreaseHalve}
	},
	"paper-nodecrease": func(int64) Policy {
		return PaperPolicy{Increase: IncreaseOptimal, Decrease: DecreaseNone}
	},
	"paper-exact": func(int64) Policy {
		return PaperPolicy{Increase: IncreaseOptimal, Decrease: DecreaseExact}
	},
	"hillclimb": func(seed int64) Policy { return NewHillClimb(seed) },
	"bandit":    func(seed int64) Policy { return NewBandit(seed) },
	"costaware": func(int64) Policy { return NewCostAware() },
}

// NewPolicy builds a registered policy by name. The empty name means the
// paper default. The seed drives the stochastic policies' perturbations;
// deterministic policies ignore it.
func NewPolicy(name string, seed int64) (Policy, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	if key == "" {
		key = "paper"
	}
	f, ok := policyRegistry[key]
	if !ok {
		return nil, fmt.Errorf("core: unknown policy %q (have %s)",
			name, strings.Join(Policies(), ", "))
	}
	return f(seed), nil
}

// Policies returns the registered policy names, sorted.
func Policies() []string {
	out := make([]string, 0, len(policyRegistry))
	for name := range policyRegistry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
