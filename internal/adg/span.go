package adg

import (
	"fmt"
	"time"

	"skandium/internal/estimate"
	"skandium/internal/plan"
	"skandium/internal/skel"
)

// SpanEstimate computes the estimated span of a program: the WCT under
// infinite parallelism (the critical path of the virtual ADG), from the
// current t(m)/|m| estimates, in closed form. Together with SeqEstimate
// (the work) it bounds a fresh execution's WCT from below at any LP:
// max(span, work/LP), the bound core.Feasible applies.
func SpanEstimate(est *estimate.Registry, node *skel.Node) (time.Duration, error) {
	p, err := plan.Of(node)
	if err != nil {
		return 0, err
	}
	return spanEst(est, p.Root())
}

func spanEst(est *estimate.Registry, st *plan.Step) (time.Duration, error) {
	switch st.Op() {
	case plan.OpExec:
		return mDur(est, st.Exec())
	case plan.OpWrap:
		return spanEst(est, st.Child(0))
	case plan.OpStages:
		var total time.Duration
		for _, s := range st.Children() {
			d, err := spanEst(est, s)
			if err != nil {
				return 0, err
			}
			total += d
		}
		return total, nil
	case plan.OpRepeat:
		d, err := spanEst(est, st.Child(0))
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
		body, err := spanEst(est, st.Child(0))
		if err != nil {
			return 0, err
		}
		return time.Duration(k+1)*tc + time.Duration(k)*body, nil
	case plan.OpSelect:
		tc, err := mDur(est, st.Cond())
		if err != nil {
			return 0, err
		}
		a, err := spanEst(est, st.Child(0))
		if err != nil {
			return 0, err
		}
		b, err := spanEst(est, st.Child(1))
		if err != nil {
			return 0, err
		}
		if b > a {
			a = b
		}
		return tc + a, nil
	case plan.OpFanOut:
		// All sub-problems run in parallel: span = split + one body + merge.
		ts, err := mDur(est, st.Split())
		if err != nil {
			return 0, err
		}
		body, err := spanEst(est, st.Child(0))
		if err != nil {
			return 0, err
		}
		tm, err := mDur(est, st.Merge())
		if err != nil {
			return 0, err
		}
		return ts + body + tm, nil
	case plan.OpFanFixed:
		ts, err := mDur(est, st.Split())
		if err != nil {
			return 0, err
		}
		var widest time.Duration
		for _, sub := range st.Children() {
			d, err := spanEst(est, sub)
			if err != nil {
				return 0, err
			}
			if d > widest {
				widest = d
			}
		}
		tm, err := mDur(est, st.Merge())
		if err != nil {
			return 0, err
		}
		return ts + widest + tm, nil
	case plan.OpRecurse:
		depth, err := mCard(est, st.Cond())
		if err != nil {
			return 0, err
		}
		if depth > maxAnalyticDepth {
			depth = maxAnalyticDepth
		}
		return dacSpan(est, st, depth)
	default:
		return 0, fmt.Errorf("adg: unknown program operation %v", st.Op())
	}
}

func dacSpan(est *estimate.Registry, st *plan.Step, remaining int) (time.Duration, error) {
	tc, err := mDur(est, st.Cond())
	if err != nil {
		return 0, err
	}
	if remaining <= 0 {
		leaf, err := spanEst(est, st.Child(0))
		if err != nil {
			return 0, err
		}
		return tc + leaf, nil
	}
	ts, err := mDur(est, st.Split())
	if err != nil {
		return 0, err
	}
	tm, err := mDur(est, st.Merge())
	if err != nil {
		return 0, err
	}
	sub, err := dacSpan(est, st, remaining-1)
	if err != nil {
		return 0, err
	}
	// Recursive children run in parallel: one child on the critical path.
	return tc + ts + sub + tm, nil
}
