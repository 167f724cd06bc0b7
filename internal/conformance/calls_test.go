package conformance

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"skandium/internal/muscle"
	"skandium/internal/plan"
	"skandium/internal/skel"
)

// callCounter rebuilds a tree with every muscle wrapped in a counting
// proxy (shared muscles stay shared), so a test can tell how often each
// one was invoked — which no event, result or makespan reveals.
type callCounter struct {
	wrapped map[*muscle.Muscle]*muscle.Muscle
	order   []*muscle.Muscle // original muscles, first-seen order
	calls   map[*muscle.Muscle]*atomic.Int64
}

func countCalls(node *skel.Node) (*skel.Node, *callCounter) {
	cc := &callCounter{wrapped: map[*muscle.Muscle]*muscle.Muscle{}, calls: map[*muscle.Muscle]*atomic.Int64{}}
	return cc.rebuild(node), cc
}

func (cc *callCounter) wrap(m *muscle.Muscle) *muscle.Muscle {
	if w, ok := cc.wrapped[m]; ok {
		return w
	}
	n := new(atomic.Int64)
	var w *muscle.Muscle
	switch m.Kind() {
	case muscle.Execute:
		w = muscle.NewExecute(m.Name(), func(p any) (any, error) { n.Add(1); return m.CallExecute(p) })
	case muscle.Split:
		w = muscle.NewSplit(m.Name(), func(p any) ([]any, error) { n.Add(1); return m.CallSplit(p) })
	case muscle.Merge:
		w = muscle.NewMerge(m.Name(), func(ps []any) (any, error) { n.Add(1); return m.CallMerge(ps) })
	default:
		w = muscle.NewCondition(m.Name(), func(p any) (bool, error) { n.Add(1); return m.CallCondition(p) })
	}
	cc.wrapped[m], cc.calls[m] = w, n
	cc.order = append(cc.order, m)
	return w
}

func (cc *callCounter) rebuild(nd *skel.Node) *skel.Node {
	kids := nd.Children()
	sub := func(i int) *skel.Node { return cc.rebuild(kids[i]) }
	switch nd.Kind() {
	case skel.Seq:
		return skel.NewSeq(cc.wrap(nd.Exec()))
	case skel.Farm:
		return skel.NewFarm(sub(0))
	case skel.Pipe:
		stages := make([]*skel.Node, len(kids))
		for i := range kids {
			stages[i] = sub(i)
		}
		return skel.NewPipe(stages...)
	case skel.For:
		return skel.NewFor(nd.N(), sub(0))
	case skel.While:
		return skel.NewWhile(cc.wrap(nd.Cond()), sub(0))
	case skel.If:
		return skel.NewIf(cc.wrap(nd.Cond()), sub(0), sub(1))
	case skel.Map:
		return skel.NewMap(cc.wrap(nd.Split()), sub(0), cc.wrap(nd.Merge()))
	case skel.Fork:
		subs := make([]*skel.Node, len(kids))
		for i := range kids {
			subs[i] = sub(i)
		}
		return skel.NewFork(cc.wrap(nd.Split()), subs, cc.wrap(nd.Merge()))
	default:
		return skel.NewDaC(cc.wrap(nd.Cond()), cc.wrap(nd.Split()), sub(0), cc.wrap(nd.Merge()))
	}
}

// take returns the per-muscle counts since the last take, in first-seen
// order, and resets them.
func (cc *callCounter) take() []string {
	out := make([]string, len(cc.order))
	for i, m := range cc.order {
		out[i] = fmt.Sprintf("%s=%d", m.Name(), cc.calls[m].Swap(0))
	}
	return out
}

// TestMuscleCallCountsAgree: over the whole 240-tree corpus, every muscle
// is invoked exactly as often by the pool (LP 1 and 3) and by the simulator
// (LP 1 and 3) as by the reference evaluator. Results, shapes and makespans
// cannot catch a driver that invokes a yielded muscle call twice, or drops
// one whose output a continuation then never reads; the counts do.
func TestMuscleCallCountsAgree(t *testing.T) {
	for _, tree := range allTrees() {
		node, cc := countCalls(tree.Node)
		if _, err := refEval(node, tree.Input); err != nil {
			t.Fatalf("(%s): reference: %v", tree.Node, err)
		}
		want := cc.take()
		p, err := plan.Compile(node)
		if err != nil {
			t.Fatalf("compile (%s): %v", tree.Node, err)
		}
		for _, lp := range []int{1, 3} {
			execRunProgram(t, p, tree.Input, lp, nil)
			if got := cc.take(); !reflect.DeepEqual(got, want) {
				t.Fatalf("(%s) lp %d: pool calls %v, reference %v", tree.Node, lp, got, want)
			}
			simRunProgram(t, p, tree.Input, lp, nil)
			if got := cc.take(); !reflect.DeepEqual(got, want) {
				t.Fatalf("(%s) lp %d: sim calls %v, reference %v", tree.Node, lp, got, want)
			}
		}
	}
}
