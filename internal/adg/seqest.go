package adg

import (
	"fmt"
	"math"
	"time"

	"skandium/internal/estimate"
	"skandium/internal/muscle"
	"skandium/internal/plan"
	"skandium/internal/skel"
)

// maxAnalyticDepth bounds d&c recursion in the analytic estimator; deeper
// estimates are clamped (the result would overflow anyway).
const maxAnalyticDepth = 64

// SeqEstimate computes the estimated sequential work of a program: the WCT
// of executing node with one thread, under the current t(m)/|m| estimates.
// It is the closed-form counterpart of a limited-LP(1) schedule of the
// virtual ADG and is also used to collapse over-budget subtrees and to rank
// if-branches. It fails with IncompleteError when an estimate is missing.
func SeqEstimate(est *estimate.Registry, node *skel.Node) (time.Duration, error) {
	return programEstimate(est, node, false)
}

// SpanEstimate computes the estimated span of a program: the WCT under
// infinite parallelism (the critical path of the virtual ADG), from the
// current t(m)/|m| estimates, in closed form. It reads no split
// cardinality. Together with SeqEstimate (the work) it bounds a fresh
// execution's WCT from below at any LP: max(span, work/LP). No product
// code calls it yet; admission feeds core.Feasible from the minima its
// ProfileStore recorded.
func SpanEstimate(est *estimate.Registry, node *skel.Node) (time.Duration, error) {
	return programEstimate(est, node, true)
}

func programEstimate(est *estimate.Registry, node *skel.Node, span bool) (time.Duration, error) {
	p, err := plan.Of(node)
	if err != nil {
		return 0, err
	}
	return stepEstimate(est, p.Root(), span)
}

// stepEstimate is the closed form of st: its work, or its span when span is
// set.
func stepEstimate(est *estimate.Registry, st *plan.Step, span bool) (time.Duration, error) {
	c := closed{est: est, span: span}
	d := c.of(st)
	return d, c.err
}

// closed is one walk of the closed form: work (one thread) or span
// (unbounded threads). The two answers differ only at the forks: work runs
// every branch in turn, span waits for the longest. The first missing
// estimate sticks in err; the value is then meaningless.
type closed struct {
	est  *estimate.Registry
	span bool
	err  error
}

func (c *closed) of(st *plan.Step) time.Duration {
	switch st.Op() {
	case plan.OpExec:
		return c.dur(st.Exec())
	case plan.OpWrap:
		return c.of(st.Child(0))
	case plan.OpStages:
		var total time.Duration
		for _, s := range st.Children() {
			total += c.of(s)
		}
		return total
	case plan.OpRepeat:
		return time.Duration(st.N()) * c.of(st.Child(0))
	case plan.OpLoop:
		// Loops are sequential in both answers: k bodies between k+1 checks.
		tc, k := c.dur(st.Cond()), c.card(st.Cond())
		return time.Duration(k+1)*tc + time.Duration(k)*c.of(st.Child(0))
	case plan.OpSelect:
		tc := c.dur(st.Cond())
		t, f := c.of(st.Child(0)), c.of(st.Child(1))
		return tc + max(t, f)
	case plan.OpFanOut:
		ts, k := c.dur(st.Split()), 1
		if !c.span {
			k = c.card(st.Split())
		}
		body := c.of(st.Child(0))
		return ts + time.Duration(k)*body + c.dur(st.Merge())
	case plan.OpFanFixed:
		ts := c.dur(st.Split())
		var bodies time.Duration
		for _, sub := range st.Children() {
			if d := c.of(sub); c.span {
				bodies = max(bodies, d)
			} else {
				bodies += d
			}
		}
		return ts + bodies + c.dur(st.Merge())
	case plan.OpRecurse:
		return c.dac(st, min(c.card(st.Cond()), maxAnalyticDepth))
	default:
		if c.err == nil {
			c.err = fmt.Errorf("adg: unknown program operation %v", st.Op())
		}
		return 0
	}
}

// dac is a divide-and-conquer with remaining levels of recursion left
// before the leaf: work runs max(|fs|, 1) children a level, span one.
func (c *closed) dac(st *plan.Step, remaining int) time.Duration {
	tc := c.dur(st.Cond())
	if remaining <= 0 {
		return tc + c.of(st.Child(0))
	}
	ts, k := c.dur(st.Split()), 1
	if !c.span {
		k = max(c.card(st.Split()), 1)
	}
	tm := c.dur(st.Merge())
	return tc + ts + time.Duration(k)*c.dac(st, remaining-1) + tm
}

// dur reads t(m), noting an IncompleteError when unknown.
func (c *closed) dur(m *muscle.Muscle) time.Duration {
	d, ok := c.est.Duration(m.ID())
	if !ok && c.err == nil {
		c.err = &IncompleteError{Muscle: m}
	}
	return max(d, 0)
}

// card reads |m| rounded to an int >= 0, noting an IncompleteError when
// unknown.
func (c *closed) card(m *muscle.Muscle) int {
	k, ok := c.est.Card(m.ID())
	if !ok {
		if c.err == nil {
			c.err = &IncompleteError{Muscle: m, Card: true}
		}
		return 0
	}
	return max(int(math.Round(k)), 0)
}
