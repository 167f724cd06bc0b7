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
	p, err := plan.Of(node)
	if err != nil {
		return 0, err
	}
	return seqEst(est, p.Root())
}

func seqEst(est *estimate.Registry, st *plan.Step) (time.Duration, error) {
	switch st.Op() {
	case plan.OpExec:
		return mDur(est, st.Exec())
	case plan.OpWrap:
		return seqEst(est, st.Child(0))
	case plan.OpStages:
		var total time.Duration
		for _, s := range st.Children() {
			d, err := seqEst(est, s)
			if err != nil {
				return 0, err
			}
			total += d
		}
		return total, nil
	case plan.OpRepeat:
		d, err := seqEst(est, st.Child(0))
		if err != nil {
			return 0, err
		}
		return time.Duration(st.N()) * d, nil
	case plan.OpLoop:
		tc, err := mDur(est, st.Cond())
		if err != nil {
			return 0, err
		}
		k, err := mCard(est, st.Cond())
		if err != nil {
			return 0, err
		}
		body, err := seqEst(est, st.Child(0))
		if err != nil {
			return 0, err
		}
		return time.Duration(k+1)*tc + time.Duration(k)*body, nil
	case plan.OpSelect:
		tc, err := mDur(est, st.Cond())
		if err != nil {
			return 0, err
		}
		t, err := seqEst(est, st.Child(0))
		if err != nil {
			return 0, err
		}
		f, err := seqEst(est, st.Child(1))
		if err != nil {
			return 0, err
		}
		if f > t {
			t = f
		}
		return tc + t, nil
	case plan.OpFanOut:
		ts, err := mDur(est, st.Split())
		if err != nil {
			return 0, err
		}
		k, err := mCard(est, st.Split())
		if err != nil {
			return 0, err
		}
		body, err := seqEst(est, st.Child(0))
		if err != nil {
			return 0, err
		}
		tm, err := mDur(est, st.Merge())
		if err != nil {
			return 0, err
		}
		return ts + time.Duration(k)*body + tm, nil
	case plan.OpFanFixed:
		ts, err := mDur(est, st.Split())
		if err != nil {
			return 0, err
		}
		var bodies time.Duration
		for _, sub := range st.Children() {
			d, err := seqEst(est, sub)
			if err != nil {
				return 0, err
			}
			bodies += d
		}
		tm, err := mDur(est, st.Merge())
		if err != nil {
			return 0, err
		}
		return ts + bodies + tm, nil
	case plan.OpRecurse:
		depth, err := mCard(est, st.Cond())
		if err != nil {
			return 0, err
		}
		if depth > maxAnalyticDepth {
			depth = maxAnalyticDepth
		}
		return dacEst(est, st, depth)
	default:
		return 0, fmt.Errorf("adg: unknown program operation %v", st.Op())
	}
}

func dacEst(est *estimate.Registry, st *plan.Step, remaining int) (time.Duration, error) {
	tc, err := mDur(est, st.Cond())
	if err != nil {
		return 0, err
	}
	if remaining <= 0 {
		leaf, err := seqEst(est, st.Child(0))
		if err != nil {
			return 0, err
		}
		return tc + leaf, nil
	}
	ts, err := mDur(est, st.Split())
	if err != nil {
		return 0, err
	}
	k, err := mCard(est, st.Split())
	if err != nil {
		return 0, err
	}
	if k < 1 {
		k = 1
	}
	tm, err := mDur(est, st.Merge())
	if err != nil {
		return 0, err
	}
	sub, err := dacEst(est, st, remaining-1)
	if err != nil {
		return 0, err
	}
	return tc + ts + time.Duration(k)*sub + tm, nil
}

// mDur reads t(m), failing with IncompleteError when unknown.
func mDur(est *estimate.Registry, m *muscle.Muscle) (time.Duration, error) {
	d, ok := est.Duration(m.ID())
	if !ok {
		return 0, &IncompleteError{Muscle: m}
	}
	if d < 0 {
		d = 0
	}
	return d, nil
}

// mCard reads |m| rounded to an int >= 0, failing when unknown.
func mCard(est *estimate.Registry, m *muscle.Muscle) (int, error) {
	c, ok := est.Card(m.ID())
	if !ok {
		return 0, &IncompleteError{Muscle: m, Card: true}
	}
	k := int(math.Round(c))
	if k < 0 {
		k = 0
	}
	return k, nil
}
