// The optimizer: a pass pipeline run over a compiled Program at cache time
// (plan.Of) and on demand (cmd/adgdump -opt). Every pass is annotation-only:
// the optimized program has exactly the same steps, pre-order indices,
// traces and muscle slots as the raw one, plus per-step annotations that
// engines may consult for a faster equivalent path. Keeping the structure
// untouched is what lets every structural consumer — remote sharding by
// step index, the ADG builder, the IR dump — work unchanged, and it is also
// what makes the soundness argument tractable: each annotation comes with a
// legality rule under which the annotated path is observably identical
// (byte-identical events, activation indices, results and virtual
// timestamps) to the un-annotated one. The conformance harness checks that
// equivalence over the full 240-tree corpus, raw program against optimized.
//
// Passes:
//
//  1. specialize-static: a static subtree (no OpLoop/OpSelect/OpRecurse) is
//     the subclass whose analytic work/span the conformance harness proves
//     exact, so the recursive estimator walk is precompiled into flat
//     postfix programs evaluated without touching the subtree.
//
// No pass rewrites the step tree or changes how the engines run a step.
package plan

import (
	"fmt"
	"math"
	"time"

	"skandium/internal/muscle"
	"skandium/internal/skel"
)

// PassReport describes what one optimizer pass did to a program.
type PassReport struct {
	Name    string // pass name
	Applied int    // number of sites annotated
	Detail  string // human-readable summary
}

// Optimize returns an optimized copy of p. The input program is never
// mutated: the conformance differential relies on that to run the raw and
// the optimized program side by side.
// Structure (steps, indices, traces, muscle slots) is preserved exactly;
// only annotations are added.
func Optimize(p *Program) *Program {
	np, _ := OptimizeWithReport(p)
	return np
}

// OptimizeWithReport is Optimize plus a per-pass report of what changed,
// for cmd/adgdump -opt and tests.
func OptimizeWithReport(p *Program) (*Program, []PassReport) {
	np := cloneProgram(p)
	return np, []PassReport{
		analyticPass(np),
	}
}

// cloneProgram deep-copies the step tree so annotations never leak into the
// caller's (possibly already published) program. Pre-order indices and the
// shared immutable traces are preserved; byID keeps first-occurrence-wins.
func cloneProgram(p *Program) *Program {
	np := &Program{
		node:  p.node,
		byID:  make(map[skel.NodeID]*Step, len(p.byID)),
		steps: make([]*Step, 0, len(p.steps)),
	}
	np.root = np.cloneStep(p.root)
	return np
}

func (p *Program) cloneStep(s *Step) *Step {
	ns := &Step{
		op:    s.op,
		nd:    s.nd,
		trace: s.trace,
		exec:  s.exec,
		split: s.split,
		merge: s.merge,
		cond:  s.cond,
		n:     s.n,
		index: len(p.steps),
	}
	p.steps = append(p.steps, ns)
	if _, dup := p.byID[s.nd.ID()]; !dup {
		p.byID[s.nd.ID()] = ns
	}
	if len(s.children) > 0 {
		ns.children = make([]*Step, len(s.children))
		for i, c := range s.children {
			ns.children[i] = p.cloneStep(c)
		}
	}
	return ns
}

// ---------------------------------------------------------------------------
// Pass 1: static specialization.

// maxAnalyticStack bounds the postfix evaluation stack; subtrees needing
// more (pathologically deep nesting) simply stay unannotated.
const maxAnalyticStack = 32

// AOpCode is one postfix analytic micro-operation over time.Durations.
type AOpCode uint8

const (
	// ADur pushes the duration estimate of muscle M (clamped at ≥0).
	ADur AOpCode = iota
	// AAdd pops b then a, pushes a+b.
	AAdd
	// AMax pops b then a, pushes max(a,b).
	AMax
	// AMulN multiplies the top of stack by the static constant N.
	AMulN
	// AMulCard multiplies the top of stack by the rounded (≥0) cardinality
	// estimate of muscle M.
	AMulCard
)

// AOp is one analytic micro-operation.
type AOp struct {
	Code AOpCode
	M    *muscle.Muscle
	N    int
}

// EstimateSource supplies per-muscle duration and cardinality estimates;
// *estimate.Registry satisfies it.
type EstimateSource interface {
	Duration(id muscle.ID) (time.Duration, bool)
	Card(id muscle.ID) (float64, bool)
}

// MissingEstimate reports the muscle whose estimate an analytic evaluation
// needed and did not find (Card distinguishes a missing cardinality from a
// missing duration).
type MissingEstimate struct {
	M    *muscle.Muscle
	Card bool
}

// Analytic holds the closed-form work and span programs of one static
// subtree: the recursive estimator walk of internal/adg compiled into flat
// postfix form. Evaluation is exactly the estimator's arithmetic — same
// clamping (negative durations to 0, cardinalities rounded then clamped to
// ≥0), same missing-estimate failures, same int64 operations in the same
// fold order — so the results are identical to the recursive walk, which is
// the soundness rule for this pass. Only the analytic estimators consult
// the annotation: simulator makespans at intermediate LP are
// schedule-dependent and have no closed form, so the simulator always walks
// the subtree faithfully.
type Analytic struct {
	work []AOp
	span []AOp
}

// Work evaluates the closed-form total work of the subtree.
func (a *Analytic) Work(src EstimateSource) (time.Duration, *MissingEstimate) {
	return evalAnalytic(a.work, src)
}

// Span evaluates the closed-form critical-path span of the subtree.
func (a *Analytic) Span(src EstimateSource) (time.Duration, *MissingEstimate) {
	return evalAnalytic(a.span, src)
}

// WorkOps returns the postfix work program (for dumps and tests).
func (a *Analytic) WorkOps() []AOp { return a.work }

// SpanOps returns the postfix span program (for dumps and tests).
func (a *Analytic) SpanOps() []AOp { return a.span }

func evalAnalytic(ops []AOp, src EstimateSource) (time.Duration, *MissingEstimate) {
	var stack [maxAnalyticStack]time.Duration
	sp := 0
	for i := range ops {
		op := &ops[i]
		switch op.Code {
		case ADur:
			d, ok := src.Duration(op.M.ID())
			if !ok {
				return 0, &MissingEstimate{M: op.M}
			}
			if d < 0 {
				d = 0
			}
			stack[sp] = d
			sp++
		case AAdd:
			sp--
			stack[sp-1] += stack[sp]
		case AMax:
			sp--
			if stack[sp] > stack[sp-1] {
				stack[sp-1] = stack[sp]
			}
		case AMulN:
			stack[sp-1] *= time.Duration(op.N)
		case AMulCard:
			c, ok := src.Card(op.M.ID())
			if !ok {
				return 0, &MissingEstimate{M: op.M, Card: true}
			}
			k := int(math.Round(c))
			if k < 0 {
				k = 0
			}
			stack[sp-1] *= time.Duration(k)
		}
	}
	return stack[0], nil
}

// staticSubtree reports whether the subtree at s belongs to the static
// subclass: no data-dependent control (OpLoop, OpSelect, OpRecurse), so its
// activation structure — and therefore its exact work and span — is fully
// determined by the program plus the per-muscle estimates.
func staticSubtree(s *Step) bool {
	switch s.op {
	case OpExec:
		return true
	case OpWrap, OpStages, OpRepeat, OpFanOut, OpFanFixed:
		if len(s.children) == 0 {
			return false
		}
		for _, c := range s.children {
			if !staticSubtree(c) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// buildAnalytic appends the postfix program for the subtree at s, mirroring
// the recursive estimator formulas exactly (left-fold order included, so
// the int64 arithmetic is identical operation for operation). work selects
// the total-work form; otherwise the span form. depth tracks the stack
// level entering the call; *maxSP records the high-water mark.
func buildAnalytic(ops []AOp, s *Step, work bool, depth int, maxSP *int) []AOp {
	if depth+2 > *maxSP {
		*maxSP = depth + 2
	}
	switch s.op {
	case OpExec:
		return append(ops, AOp{Code: ADur, M: s.exec})
	case OpWrap:
		return buildAnalytic(ops, s.children[0], work, depth, maxSP)
	case OpStages:
		ops = buildAnalytic(ops, s.children[0], work, depth, maxSP)
		for _, c := range s.children[1:] {
			ops = buildAnalytic(ops, c, work, depth+1, maxSP)
			ops = append(ops, AOp{Code: AAdd})
		}
		return ops
	case OpRepeat:
		ops = buildAnalytic(ops, s.children[0], work, depth, maxSP)
		return append(ops, AOp{Code: AMulN, N: s.n})
	case OpFanOut:
		// work: ts + k·body + tm    span: ts + body + tm
		ops = append(ops, AOp{Code: ADur, M: s.split})
		ops = buildAnalytic(ops, s.children[0], work, depth+1, maxSP)
		if work {
			ops = append(ops, AOp{Code: AMulCard, M: s.split})
		}
		ops = append(ops, AOp{Code: AAdd})
		ops = append(ops, AOp{Code: ADur, M: s.merge})
		return append(ops, AOp{Code: AAdd})
	case OpFanFixed:
		// work: ts + Σ children + tm    span: ts + max(children) + tm
		ops = append(ops, AOp{Code: ADur, M: s.split})
		ops = buildAnalytic(ops, s.children[0], work, depth+1, maxSP)
		for _, c := range s.children[1:] {
			ops = buildAnalytic(ops, c, work, depth+2, maxSP)
			if work {
				ops = append(ops, AOp{Code: AAdd})
			} else {
				ops = append(ops, AOp{Code: AMax})
			}
		}
		ops = append(ops, AOp{Code: AAdd})
		ops = append(ops, AOp{Code: ADur, M: s.merge})
		return append(ops, AOp{Code: AAdd})
	}
	return ops
}

// analyticPass annotates every maximal static subtree (static subtree whose
// parent is not static, including a fully static root) with its closed-form
// work/span programs. The estimators check the annotation at every step
// they walk, so exactly these maximal roots are hit.
func analyticPass(p *Program) PassReport {
	rep := PassReport{Name: "specialize-static"}
	steps := 0
	var walk func(s *Step, inStatic bool)
	walk = func(s *Step, inStatic bool) {
		self := false
		if !inStatic && staticSubtree(s) {
			maxSP := 0
			work := buildAnalytic(nil, s, true, 0, &maxSP)
			span := buildAnalytic(nil, s, false, 0, &maxSP)
			if maxSP <= maxAnalyticStack {
				s.analytic = &Analytic{work: work, span: span}
				rep.Applied++
				steps += countSteps(s)
				self = true
			}
		}
		for _, c := range s.children {
			walk(c, inStatic || self)
		}
	}
	walk(p.root, false)
	rep.Detail = fmt.Sprintf("%d static subtrees specialized covering %d steps", rep.Applied, steps)
	return rep
}

func countSteps(s *Step) int {
	n := 1
	for _, c := range s.children {
		n += countSteps(c)
	}
	return n
}
