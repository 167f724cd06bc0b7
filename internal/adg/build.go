package adg

import (
	"fmt"
	"math"
	"slices"
	"time"

	"skandium/internal/estimate"
	"skandium/internal/muscle"
	"skandium/internal/plan"
	"skandium/internal/skel"
	"skandium/internal/statemachine"
)

// DefaultBudget caps the number of activities a single ADG may contain.
// Structure beyond the budget is collapsed into single activities whose
// duration is the analytic sequential estimate, so analysis cost stays
// bounded on explosive programs (deep d&c, huge maps).
const DefaultBudget = 50000

// IncompleteError reports that the ADG could not be built because a muscle
// has no estimate yet. The paper: "the system has to wait until all muscles
// have been executed at least once"; the controller treats this error as
// "analysis not possible yet".
type IncompleteError struct {
	Muscle *muscle.Muscle
	// Card is true when the missing piece is the cardinality |m| rather
	// than the duration t(m).
	Card bool
}

// Error implements error.
func (e *IncompleteError) Error() string {
	what := "t(m)"
	if e.Card {
		what = "|m|"
	}
	return fmt.Sprintf("adg: no %s estimate for muscle %s yet", what, e.Muscle)
}

// Builder constructs ADGs from a live activation tree (or from bare
// structure, for pre-execution planning) and an estimate registry. One walk
// serves both: a step that has not started is an activation with no
// history. It runs over the compiled program IR (internal/plan) — the same
// steps the interpreter and the simulator execute — so structural decisions
// (branch resolution, fan-out arity, muscle slots) cannot drift between
// analysis and execution.
type Builder struct {
	// Est supplies t(m) and |m|.
	Est *estimate.Registry
	// Budget caps the activity count (0 = DefaultBudget).
	Budget int
}

// BuildLive snapshots the ADG of a running execution into a new graph (see
// LiveInto).
func (b Builder) BuildLive(root *statemachine.Instance, start, now time.Time) (*Graph, error) {
	g := new(Graph)
	if err := b.LiveInto(g, root, start, now); err != nil {
		return nil, err
	}
	return g, nil
}

// LiveInto snapshots the ADG of a running execution into g, reusing its
// buffers: root is the tracker's root instance, start the execution start
// time, now the analysis instant (only recorded as g.Now: the build itself
// does not depend on it). The walk pairs each live activation with its
// compiled program step. On error g holds no usable graph.
func (b Builder) LiveInto(g *Graph, root *statemachine.Instance, start, now time.Time) error {
	if root == nil {
		return fmt.Errorf("adg: no root activation yet")
	}
	p, err := plan.Of(root.Node)
	if err != nil {
		return err
	}
	bd := b.begin(g, start, now)
	bd.liveInst(root, p.Root(), span{})
	return bd.err
}

// BuildVirtual constructs the a-priori ADG of a program that has not
// started: the walk of BuildLive over an unstarted root, so every activity
// is pending, anchored at start. It requires every muscle to have
// (initialized) estimates.
func (b Builder) BuildVirtual(node *skel.Node, start time.Time) (*Graph, error) {
	p, err := plan.Of(node)
	if err != nil {
		return nil, err
	}
	g := new(Graph)
	bd := b.begin(g, start, start)
	bd.liveInst(unstarted, p.Root(), span{})
	if bd.err != nil {
		return nil, bd.err
	}
	return g, nil
}

// begin empties g for a new build.
func (b Builder) begin(g *Graph, start, now time.Time) *build {
	budget := b.Budget
	if budget <= 0 {
		budget = DefaultBudget
	}
	g.Acts, g.preds, g.slots = g.Acts[:0], g.preds[:0], g.slots[:0]
	g.stk, g.tab = g.stk[:0], g.tab[:0]
	if g.slot == nil {
		g.slot = make(map[muscle.ID]int32)
	}
	clear(g.slot)
	g.Start, g.Now = start, now
	return &build{g: g, est: b.Est, budget: budget, last: -1}
}

// build is the state of one walk. Predecessor sets travel as spans of the
// graph's stack: every expansion returns its exit set at the stack position
// it found on entry, so a fan-out's branches leave their exits side by side
// for the merge.
type build struct {
	g      *Graph
	est    *estimate.Registry
	budget int
	err    error
	last   int32 // slot of the previous muscle looked up
}

// span is a set of activity ids: g.stk[lo:hi].
type span struct{ lo, hi int32 }

func (bd *build) fail(err error) {
	if bd.err == nil {
		bd.err = err
	}
}

// top returns the current stack height: the position an expansion's exit
// set will occupy.
func (bd *build) top() int32 { return int32(len(bd.g.stk)) }

// single leaves the set {id} at position m.
func (bd *build) single(m, id int32) span {
	bd.g.stk = append(bd.g.stk[:m], id)
	return span{m, m + 1}
}

// at moves the set s to position m and drops everything above it.
func (bd *build) at(m int32, s span) span {
	n := s.hi - s.lo
	switch {
	case s.lo < m: // the caller's own set: copy it up
		bd.g.stk = append(bd.g.stk[:m], bd.g.stk[s.lo:s.hi]...)
	case s.lo > m:
		copy(bd.g.stk[m:], bd.g.stk[s.lo:s.hi])
	}
	bd.g.stk = bd.g.stk[:m+n]
	return span{m, m + n}
}

// none leaves the empty set at position m (the walk failed).
func (bd *build) none(m int32) span {
	bd.g.stk = bd.g.stk[:m]
	return span{m, m}
}

// --- muscle slots and activities ----------------------------------------------

// slotOf returns m's slot, reading its duration estimate the first time m is
// seen in this build.
func (bd *build) slotOf(m *muscle.Muscle) int32 {
	g := bd.g
	if bd.last >= 0 && g.slots[bd.last].m == m {
		return bd.last
	}
	s, ok := g.slot[m.ID()]
	if !ok {
		s = int32(len(g.slots))
		d, ok := bd.est.Duration(m.ID())
		g.slots = append(g.slots, muscleSlot{m: m, dur: max(d, 0), durOK: ok})
		g.slot[m.ID()] = s
	}
	bd.last = s
	return s
}

func (bd *build) card(m *muscle.Muscle) int {
	sl := &bd.g.slots[bd.slotOf(m)]
	if !sl.cardRead {
		c, ok := bd.est.Card(m.ID())
		sl.cardRead, sl.cardOK, sl.card = true, ok, max(int(math.Round(c)), 0)
	}
	if !sl.cardOK {
		bd.fail(&IncompleteError{Muscle: m, Card: true})
		return 0
	}
	return sl.card
}

// act appends an activity running m. rec carries the actual times when the
// muscle has started/finished.
func (bd *build) act(m *muscle.Muscle, rec statemachine.ActivityRec, preds span) int32 {
	s := bd.slotOf(m)
	sl := &bd.g.slots[s]
	if !sl.durOK {
		bd.fail(&IncompleteError{Muscle: m})
	}
	return bd.add(s, sl.dur, rec, preds)
}

func (bd *build) add(slot int32, dur time.Duration, rec statemachine.ActivityRec, preds span) int32 {
	g := bd.g
	a := Activity{
		Dur:         dur,
		ActualStart: unset, ActualEnd: unset, TI: unset, TF: unset,
		slot:  slot,
		p0:    int32(len(g.preds)),
		state: Pending,
	}
	g.preds = append(g.preds, g.stk[preds.lo:preds.hi]...)
	a.p1 = int32(len(g.preds))
	if rec.Started {
		a.ActualStart, a.state = g.at(rec.Start), Running
	}
	if rec.Ended {
		a.ActualEnd, a.state = g.at(rec.End), Done
	}
	g.Acts = append(g.Acts, a)
	bd.budget--
	return int32(len(g.Acts) - 1)
}

// lump replaces count repetitions of a subtree with one pending activity of
// count times the analytic sequential estimate. It keeps over-budget graphs
// bounded: the remaining work is modelled pessimistically (sequential) but
// the analysis stays cheap.
func (bd *build) lump(st *plan.Step, count int, preds span) span {
	m := bd.top()
	if count <= 0 {
		return bd.at(m, preds)
	}
	d, err := stepEstimate(bd.est, st, false)
	if err != nil {
		bd.fail(err)
		return bd.none(m)
	}
	var none statemachine.ActivityRec
	return bd.single(m, bd.add(lumpSlot(st.Kind()), time.Duration(count)*d, none, preds))
}

// worst picks the branch of an undecided if by analytic sequential
// estimate (the paper leaves If unsupported; this plans for the worst case).
func (bd *build) worst(st *plan.Step) *plan.Step {
	t, errT := stepEstimate(bd.est, st.Child(0), false)
	f, errF := stepEstimate(bd.est, st.Child(1), false)
	if errT != nil || (errF == nil && f > t) {
		return st.Child(1)
	}
	return st.Child(0)
}

// --- the walk --------------------------------------------------------------------

// unstarted is the activation of a step that has not started: no history,
// no children, no split cardinality yet. It is never written. Walking it
// expands the step from estimates alone, which is all BuildVirtual does and
// what a live build does below every activation that has not begun.
var unstarted = &statemachine.Instance{ActualCard: -1}

// first returns in's first child, or unstarted.
func first(in *statemachine.Instance) *statemachine.Instance {
	if len(in.Children) > 0 {
		return in.Children[0]
	}
	return unstarted
}

// liveInst expands an activation, mixing actual history with estimated
// futures, and returns the exit set. st is the compiled step the activation
// was executed from (d&c recursion levels share their node's single step).
// Past the budget, what is left of a step is one lump.
func (bd *build) liveInst(in *statemachine.Instance, st *plan.Step, preds span) span {
	m := bd.top()
	if bd.err != nil {
		return bd.none(m)
	}
	if bd.budget <= 0 {
		return bd.lump(st, 1, preds)
	}
	switch st.Op() {
	case plan.OpExec:
		rec := in.Exec
		if !rec.Started {
			// Fig. 3: the seq activation brackets exactly the fe muscle.
			rec = statemachine.ActivityRec{Start: in.StartTime, Started: in.Started}
		}
		return bd.single(m, bd.act(st.Exec(), rec, preds))
	case plan.OpWrap:
		return bd.liveInst(first(in), st.Child(0), preds)
	case plan.OpStages:
		kids := bd.index(in, false)
		for i, stage := range st.Children() {
			preds = bd.at(m, bd.liveInst(kids.get(bd, i), stage, preds))
		}
		bd.drop(kids)
		return bd.at(m, preds)
	case plan.OpRepeat:
		kids := bd.index(in, true)
		for i := 0; i < st.N(); i++ {
			if bd.budget <= 0 {
				preds = bd.at(m, bd.lump(st.Child(0), st.N()-i, preds))
				break
			}
			preds = bd.at(m, bd.liveInst(kids.get(bd, i), st.Child(0), preds))
		}
		bd.drop(kids)
		return bd.at(m, preds)
	case plan.OpLoop:
		return bd.liveWhile(in, st, preds)
	case plan.OpSelect:
		return bd.liveIf(in, st, preds)
	case plan.OpFanOut, plan.OpFanFixed:
		return bd.liveSplitMerge(in, st, preds)
	case plan.OpRecurse:
		return bd.liveDaC(in, st, preds, in.Depth)
	default:
		bd.fail(fmt.Errorf("adg: unknown program operation %v", st.Op()))
		return bd.none(m)
	}
}

// cond appends the activity of a condition check: its first recorded
// invocation, or a pending one.
func (bd *build) cond(in *statemachine.Instance, fc *muscle.Muscle, preds span) int32 {
	var rec statemachine.ActivityRec
	if len(in.Conds) > 0 {
		rec = in.Conds[0]
	}
	return bd.act(fc, rec, preds)
}

func (bd *build) liveWhile(in *statemachine.Instance, st *plan.Step, preds span) span {
	m := bd.top()
	fc := st.Cond()
	body := st.Child(0)
	kids := bd.index(in, true)
	defer bd.drop(kids)
	// Recorded condition checks alternate with body iterations. A check
	// still running is assumed true when the |fc| estimate predicts more
	// iterations, false otherwise.
	assumed := 0
	for i, rec := range in.Conds {
		preds = bd.single(m, bd.act(fc, rec, preds))
		last := i == len(in.Conds)-1
		if in.CondClosed && last {
			return preds // final false verdict: the while is structurally over
		}
		if !rec.Ended {
			if bd.card(fc) <= in.TrueIters {
				return preds // estimate says the running check will end the loop
			}
			assumed = 1
		}
		preds = bd.at(m, bd.liveInst(kids.get(bd, i), body, preds))
	}
	// Future iterations: the |fc| estimate minus the true verdicts already
	// seen (and the one assumed above).
	var none statemachine.ActivityRec
	k := bd.card(fc) - in.TrueIters - assumed
	for i := 0; i < k; i++ {
		if bd.budget <= 0 {
			return bd.at(m, bd.lump(st, 1, preds)) // remaining loop as one lump
		}
		cond := bd.act(fc, none, preds)
		preds = bd.at(m, bd.liveInst(unstarted, body, bd.single(m, cond)))
	}
	return bd.single(m, bd.act(fc, none, preds))
}

func (bd *build) liveIf(in *statemachine.Instance, st *plan.Step, preds span) span {
	m := bd.top()
	cond := bd.single(m, bd.cond(in, st.Cond(), preds))
	if len(in.Children) > 0 {
		// The chosen branch is recorded on the child instance.
		b := in.Children[0].Branch
		if b < 0 || b > 1 {
			b = 0
		}
		return bd.at(m, bd.liveInst(in.Children[0], st.Child(b), cond))
	}
	// Branch not chosen yet: plan for the worst case.
	return bd.at(m, bd.liveInst(unstarted, bd.worst(st), cond))
}

// liveSplitMerge handles map and fork.
func (bd *build) liveSplitMerge(in *statemachine.Instance, st *plan.Step, preds span) span {
	m := bd.top()
	split := bd.single(m, bd.act(st.Split(), in.Split, preds))
	fixed := st.Op() == plan.OpFanFixed
	subs := st.Children()
	k := in.ActualCard
	if k < 0 {
		if fixed {
			k = len(subs)
		} else {
			k = bd.card(st.Split())
		}
	}
	kids := bd.index(in, false)
	for b := 0; b < k; b++ {
		sub := subs[min(b, len(subs)-1)]
		if bd.budget <= 0 {
			bd.lump(sub, k-b, split)
			break
		}
		bd.liveInst(kids.get(bd, b), sub, split)
	}
	bd.drop(kids)
	return bd.single(m, bd.act(st.Merge(), in.Merge, span{split.hi, bd.top()}))
}

// liveDaC expands a divide-and-conquer activation at recursion depth depth.
// Until its condition has answered, the |fc| estimate minus the depth says
// whether it recurses.
func (bd *build) liveDaC(in *statemachine.Instance, st *plan.Step, preds span, depth int) span {
	m := bd.top()
	entry := bd.single(m, bd.cond(in, st.Cond(), preds))
	recursive := in.Split.Started || in.ActualCard >= 0
	if !recursive && (in.CondClosed || bd.card(st.Cond()) <= depth) {
		// Leaf: the nested skeleton solves it.
		return bd.at(m, bd.liveInst(first(in), st.Child(0), entry))
	}
	split := bd.single(m, bd.act(st.Split(), in.Split, entry))
	k := in.ActualCard
	if k < 0 {
		k = max(bd.card(st.Split()), 1)
	}
	kids := bd.index(in, false)
	// The children enter liveDaC directly, so the loop makes liveInst's
	// error and budget checks.
	for b := 0; b < k && bd.err == nil; b++ {
		if bd.budget <= 0 {
			bd.lump(st, k-b, split)
			break
		}
		// Children re-enter the same step one level deeper; a started child
		// reads its depth from its own instance.
		c, d := kids.get(bd, b), depth+1
		if c != unstarted {
			d = c.Depth
		}
		bd.liveDaC(c, st, split, d)
	}
	bd.drop(kids)
	return bd.single(m, bd.act(st.Merge(), in.Merge, span{split.hi, bd.top()}))
}

// --- child lookup ----------------------------------------------------------------

// children indexes an activation's children by structural slot: table
// g.tab[base:base+n] holds, per slot, the position of its child in
// Children (-1 = not activated yet).
type children struct {
	in      *statemachine.Instance
	base, n int32
}

// index builds the slot table of in's children, keyed by Branch (or by Iter
// for loops). A key already taken — retries and substitutions can repeat
// one — falls back to the child's arrival position, which may displace an
// earlier child.
func (bd *build) index(in *statemachine.Instance, byIter bool) children {
	g := bd.g
	key := func(c *statemachine.Instance) int {
		if byIter {
			return c.Iter
		}
		return c.Branch
	}
	n := len(in.Children)
	for _, c := range in.Children {
		n = max(n, key(c)+1)
	}
	base := len(g.tab)
	g.tab = slices.Grow(g.tab, n)[:base+n]
	tab := g.tab[base:]
	for i := range tab {
		tab[i] = -1
	}
	g.odd = g.odd[:0] // keys below zero: never looked up, but they can collide
	for i, c := range in.Children {
		k := key(c)
		if (k >= 0 && tab[k] >= 0) || (k < 0 && slices.Contains(g.odd, int32(k))) {
			k = i
		}
		if k >= 0 {
			tab[k] = int32(i)
		} else {
			g.odd = append(g.odd, int32(k))
		}
	}
	return children{in: in, base: int32(base), n: int32(n)}
}

// get returns the child in slot b, or unstarted.
func (c children) get(bd *build, b int) *statemachine.Instance {
	if b < 0 || b >= int(c.n) {
		return unstarted
	}
	if i := bd.g.tab[int(c.base)+b]; i >= 0 {
		return c.in.Children[i]
	}
	return unstarted
}

// drop pops the table (and any a nested walk left above it).
func (bd *build) drop(c children) { bd.g.tab = bd.g.tab[:c.base] }
