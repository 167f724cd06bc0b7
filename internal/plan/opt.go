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
//  1. fuse-serial: a chain of serial ops (OpExec, OpWrap, OpStages,
//     OpRepeat) never forks — the interpreter keeps one worker and the
//     simulator one slot for the whole chain — so the chain is flattened
//     into a FusedProg micro-op list executed by a single instruction,
//     eliminating the per-stage Task/Instr push-pop churn.
//  2. specialize-static: a static subtree (no OpLoop/OpSelect/OpRecurse) is
//     the subclass whose analytic work/span the conformance harness proves
//     exact, so the recursive estimator walk is precompiled into flat
//     postfix programs evaluated without touching the subtree.
//  3. presize-fanout: fan-out steps get a cardinality hint slot — exact for
//     OpFanFixed, recorded live after every split otherwise — that
//     consumers use to size buffers and shard batches up front.
//  4. arena: each fused chain carries a program-owned scratch pool so the
//     interpreter's per-activation state is recycled across roots instead
//     of reallocated (the simulator recycles through engine-owned
//     freelists, which need no synchronization at all).
package plan

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
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
	reports := []PassReport{
		fusePass(np),
		analyticPass(np),
		cardHintPass(np),
	}
	reports = append(reports, arenaReport(np))
	return np, reports
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
// Pass 1: seq fusion.

// Budget caps for one fused chain. OpRepeat unrolls, so a for(10⁶, seq)
// would otherwise compile into millions of micro-ops; over-budget chains
// simply stay unfused (the per-step instructions remain fully functional).
const (
	maxFuseOps    = 512
	maxFuseFrames = 64
)

// FuseCode is a fused micro-operation. The five codes reproduce exactly the
// instruction sequences the per-step interpreter and simulator would push
// for a serial chain, in the same order — which is the fusion legality
// argument: serial ops never fork, both engines process a non-forking chain
// on one worker/slot without interleaving other instructions of the same
// task, so running the flattened list inline emits the same events, in the
// same order, with the same activation indices and (in the simulator) the
// same virtual timestamps.
type FuseCode uint8

const (
	// FBegin opens the activation of Step: allocate the next activation
	// index and emit Before/Skeleton, pushing an activation frame.
	FBegin FuseCode = iota
	// FBody runs the execute muscle of the open OpExec activation (with the
	// full retry/timeout protocol), emits After/Skeleton, and pops the
	// frame.
	FBody
	// FEnd closes the open control activation: emit After/Skeleton, pop.
	FEnd
	// FNestedBegin emits Before/NestedSkel on the open activation with the
	// op's Branch/Iter.
	FNestedBegin
	// FNestedEnd emits After/NestedSkel on the open activation.
	FNestedEnd
)

// String names the micro-op code.
func (c FuseCode) String() string {
	switch c {
	case FBegin:
		return "begin"
	case FBody:
		return "body"
	case FEnd:
		return "end"
	case FNestedBegin:
		return "nested-begin"
	case FNestedEnd:
		return "nested-end"
	default:
		return fmt.Sprintf("FuseCode(%d)", int(c))
	}
}

// FuseOp is one fused micro-operation.
type FuseOp struct {
	Code   FuseCode
	Step   *Step // the step the op belongs to (FBegin/FBody: the opened step)
	Branch int   // FNestedBegin/FNestedEnd: pipeline stage index
	Iter   int   // FNestedBegin/FNestedEnd: repeat iteration index
}

// FusedProg is the flattened micro-op form of one serial chain, annotated
// on the chain's root step. It also owns the interpreter's scratch pool
// (pass 4): per-activation state for this chain is recycled here across
// roots, so steady-state execution of the chain allocates nothing.
type FusedProg struct {
	root        *Step
	ops         []FuseOp
	activations int // number of FBegin ops (skeleton activations covered)
	maxFrames   int // deepest activation nesting, sizes frame stacks exactly

	scratch sync.Pool // interpreter fused-instruction state (internal/exec)
}

// Root returns the chain's root step.
func (f *FusedProg) Root() *Step { return f.root }

// Ops returns the micro-op list. Callers must not modify it.
func (f *FusedProg) Ops() []FuseOp { return f.ops }

// Activations returns how many skeleton activations the chain covers.
func (f *FusedProg) Activations() int { return f.activations }

// MaxFrames returns the deepest activation nesting of the chain.
func (f *FusedProg) MaxFrames() int { return f.maxFrames }

// Scratch returns the program-owned arena for per-activation interpreter
// state of this chain.
func (f *FusedProg) Scratch() *sync.Pool { return &f.scratch }

// fuseSerial reports whether the subtree at s is a pure serial chain:
// composed only of ops that never fork a second task.
func fuseSerial(s *Step) bool {
	switch s.op {
	case OpExec:
		return true
	case OpWrap, OpRepeat:
		return fuseSerial(s.children[0])
	case OpStages:
		for _, c := range s.children {
			if !fuseSerial(c) {
				return false
			}
		}
		return len(s.children) > 0
	default:
		return false
	}
}

// fuseOpCount sizes the micro-op list for a serial subtree (OpRepeat
// unrolls). Only meaningful when fuseSerial(s) holds.
func fuseOpCount(s *Step) int {
	switch s.op {
	case OpExec:
		return 2
	case OpWrap:
		return 4 + fuseOpCount(s.children[0])
	case OpStages:
		n := 2
		for _, c := range s.children {
			n += 2 + fuseOpCount(c)
		}
		return n
	case OpRepeat:
		per := 2 + fuseOpCount(s.children[0])
		if s.n > maxFuseOps { // avoid overflow on absurd repeat counts
			return maxFuseOps + 1
		}
		return 2 + s.n*per
	default:
		return maxFuseOps + 1
	}
}

// fuseFrameDepth returns the deepest activation nesting of a serial subtree.
func fuseFrameDepth(s *Step) int {
	switch s.op {
	case OpExec:
		return 1
	case OpWrap, OpRepeat:
		return 1 + fuseFrameDepth(s.children[0])
	case OpStages:
		deepest := 0
		for _, c := range s.children {
			if d := fuseFrameDepth(c); d > deepest {
				deepest = d
			}
		}
		return 1 + deepest
	default:
		return maxFuseFrames + 1
	}
}

// appendFuseOps flattens the serial subtree at s into micro-ops, mirroring
// exactly the instruction order of the per-step engines: every activation
// opens with FBegin, control ops bracket each nested evaluation with
// FNestedBegin/FNestedEnd (stage index as Branch, repeat index as Iter),
// and every activation closes with FBody (OpExec) or FEnd.
func appendFuseOps(ops []FuseOp, s *Step) []FuseOp {
	ops = append(ops, FuseOp{Code: FBegin, Step: s})
	switch s.op {
	case OpExec:
		return append(ops, FuseOp{Code: FBody, Step: s})
	case OpWrap:
		ops = append(ops, FuseOp{Code: FNestedBegin, Step: s})
		ops = appendFuseOps(ops, s.children[0])
		ops = append(ops, FuseOp{Code: FNestedEnd, Step: s})
	case OpStages:
		for i, c := range s.children {
			ops = append(ops, FuseOp{Code: FNestedBegin, Step: s, Branch: i})
			ops = appendFuseOps(ops, c)
			ops = append(ops, FuseOp{Code: FNestedEnd, Step: s, Branch: i})
		}
	case OpRepeat:
		for i := 0; i < s.n; i++ {
			ops = append(ops, FuseOp{Code: FNestedBegin, Step: s, Iter: i})
			ops = appendFuseOps(ops, s.children[0])
			ops = append(ops, FuseOp{Code: FNestedEnd, Step: s, Iter: i})
		}
	}
	return append(ops, FuseOp{Code: FEnd, Step: s})
}

// fusePass annotates every maximal serial chain of ≥2 activations with its
// flattened FusedProg. Chains nested inside an annotated chain are inlined
// by the parent and not annotated themselves; chains over the micro-op or
// frame budget stay unfused.
func fusePass(p *Program) PassReport {
	rep := PassReport{Name: "fuse-serial"}
	totalActs := 0
	var walk func(s *Step, inChain bool)
	walk = func(s *Step, inChain bool) {
		self := false
		if !inChain && fuseSerial(s) &&
			fuseOpCount(s) <= maxFuseOps && fuseFrameDepth(s) <= maxFuseFrames {
			ops := appendFuseOps(make([]FuseOp, 0, fuseOpCount(s)), s)
			acts := 0
			for i := range ops {
				if ops[i].Code == FBegin {
					acts++
				}
			}
			if acts >= 2 { // a lone OpExec gains nothing from fusing
				s.fused = &FusedProg{
					root:        s,
					ops:         ops,
					activations: acts,
					maxFrames:   fuseFrameDepth(s),
				}
				rep.Applied++
				totalActs += acts
				self = true
			}
		}
		for _, c := range s.children {
			walk(c, inChain || self)
		}
	}
	walk(p.root, false)
	rep.Detail = fmt.Sprintf("%d chains fused covering %d activations", rep.Applied, totalActs)
	return rep
}

// ---------------------------------------------------------------------------
// Pass 2: static specialization.

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

// ---------------------------------------------------------------------------
// Pass 3: fan-out pre-sizing.

// CardHint is the live cardinality hint of one fan-out step: the last
// observed (or statically known) number of parts its split produced.
// Engines record after every split; consumers use it to size child-result
// buffers and remote shard batches up front. It is
// strictly an allocation hint — never a semantic input — so a stale or
// absent hint costs only an amortized reallocation.
type CardHint struct {
	v atomic.Int64
}

// Record stores an observed cardinality (negative values are ignored).
func (h *CardHint) Record(k int) {
	if h != nil && k >= 0 {
		h.v.Store(int64(k))
	}
}

// Get returns the hinted cardinality, or ok=false when nothing has been
// observed yet.
func (h *CardHint) Get() (int, bool) {
	if h == nil {
		return 0, false
	}
	v := h.v.Load()
	if v < 0 {
		return 0, false
	}
	return int(v), true
}

// cardHintPass attaches a hint slot to every fan-out step. OpFanFixed fans
// out into exactly len(children) parts, so its hint is seeded statically;
// OpFanOut and OpRecurse start unknown and are filled by the first split.
func cardHintPass(p *Program) PassReport {
	rep := PassReport{Name: "presize-fanout"}
	seeded := 0
	for _, s := range p.steps {
		switch s.op {
		case OpFanOut, OpFanFixed, OpRecurse:
			h := &CardHint{}
			h.v.Store(-1)
			if s.op == OpFanFixed {
				h.v.Store(int64(len(s.children)))
				seeded++
			}
			s.hint = h
			rep.Applied++
		}
	}
	rep.Detail = fmt.Sprintf("%d fan-out hint slots (%d statically seeded)", rep.Applied, seeded)
	return rep
}

// ---------------------------------------------------------------------------
// Pass 4: arenas (reporting only — the pools live on the FusedProgs).

func arenaReport(p *Program) PassReport {
	rep := PassReport{Name: "arena"}
	for _, s := range p.steps {
		if s.fused != nil {
			rep.Applied++
		}
	}
	rep.Detail = fmt.Sprintf("%d program-owned scratch pools provisioned", rep.Applied)
	return rep
}
