package conformance

import (
	"fmt"

	"skandium/internal/skel"
)

// The reference evaluator is a direct recursive interpreter with no tasks,
// no pool, no events and no parallelism. It defines the functional
// semantics of the algebra in ~100 lines and is the oracle of the
// differential tests: the task-pool engine (internal/exec) and the
// simulator (internal/sim) must compute exactly what it computes, for
// every program and input.

// maxRefIterations bounds while/d&c loops so buggy conditions surface as
// errors instead of hangs in tests.
const maxRefIterations = 1_000_000

// refEval computes the result of a skeleton program sequentially.
func refEval(node *skel.Node, param any) (any, error) {
	if err := node.Validate(); err != nil {
		return nil, err
	}
	return refEvalAt(node, param, 0)
}

func refEvalAt(node *skel.Node, param any, depth int) (any, error) {
	switch node.Kind() {
	case skel.Seq:
		return node.Exec().CallExecute(param)
	case skel.Farm:
		return refEvalAt(node.Children()[0], param, 0)
	case skel.Pipe:
		var err error
		for _, stage := range node.Children() {
			param, err = refEvalAt(stage, param, 0)
			if err != nil {
				return nil, err
			}
		}
		return param, nil
	case skel.For:
		var err error
		for i := 0; i < node.N(); i++ {
			param, err = refEvalAt(node.Children()[0], param, 0)
			if err != nil {
				return nil, err
			}
		}
		return param, nil
	case skel.While:
		for i := 0; ; i++ {
			if i > maxRefIterations {
				return nil, fmt.Errorf("refeval: while exceeded %d iterations", maxRefIterations)
			}
			c, err := node.Cond().CallCondition(param)
			if err != nil {
				return nil, err
			}
			if !c {
				return param, nil
			}
			param, err = refEvalAt(node.Children()[0], param, 0)
			if err != nil {
				return nil, err
			}
		}
	case skel.If:
		c, err := node.Cond().CallCondition(param)
		if err != nil {
			return nil, err
		}
		branch := 0
		if !c {
			branch = 1
		}
		return refEvalAt(node.Children()[branch], param, 0)
	case skel.Map:
		parts, err := node.Split().CallSplit(param)
		if err != nil {
			return nil, err
		}
		results := make([]any, len(parts))
		for i, p := range parts {
			results[i], err = refEvalAt(node.Children()[0], p, 0)
			if err != nil {
				return nil, err
			}
		}
		return node.Merge().CallMerge(results)
	case skel.Fork:
		parts, err := node.Split().CallSplit(param)
		if err != nil {
			return nil, err
		}
		subs := node.Children()
		if len(parts) != len(subs) {
			return nil, fmt.Errorf("refeval: fork split produced %d sub-problems for %d nested skeletons",
				len(parts), len(subs))
		}
		results := make([]any, len(parts))
		for i, p := range parts {
			results[i], err = refEvalAt(subs[i], p, 0)
			if err != nil {
				return nil, err
			}
		}
		return node.Merge().CallMerge(results)
	case skel.DaC:
		if depth > maxRefIterations {
			return nil, fmt.Errorf("refeval: d&c recursion exceeded %d levels", maxRefIterations)
		}
		c, err := node.Cond().CallCondition(param)
		if err != nil {
			return nil, err
		}
		if !c {
			return refEvalAt(node.Children()[0], param, 0)
		}
		parts, err := node.Split().CallSplit(param)
		if err != nil {
			return nil, err
		}
		results := make([]any, len(parts))
		for i, p := range parts {
			results[i], err = refEvalAt(node, p, depth+1)
			if err != nil {
				return nil, err
			}
		}
		return node.Merge().CallMerge(results)
	default:
		return nil, fmt.Errorf("refeval: unknown kind %v", node.Kind())
	}
}
