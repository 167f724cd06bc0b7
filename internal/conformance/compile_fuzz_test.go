package conformance

import (
	"errors"
	"reflect"
	"testing"

	"skandium/internal/adg"
	"skandium/internal/event"
	"skandium/internal/plan"
	"skandium/internal/skel"
)

// opOf is the IR operation each skeleton kind must compile to.
var opOf = map[skel.Kind]plan.Op{
	skel.Seq: plan.OpExec, skel.Farm: plan.OpWrap, skel.Pipe: plan.OpStages,
	skel.For: plan.OpRepeat, skel.While: plan.OpLoop, skel.If: plan.OpSelect,
	skel.Map: plan.OpFanOut, skel.Fork: plan.OpFanFixed, skel.DaC: plan.OpRecurse,
}

// FuzzCompile checks Compile's contract on one generated tree per input:
// seed picks the tree, depth (taken mod 5, so at most 4) its height, and
// static whether it comes from the analytic subclass (GenerateStatic) or
// the full algebra (Generate). For every input:
//
//   - step i of the program is the i-th node of a pre-order walk of the
//     tree, with the op of its kind, index i, the path from the root as its
//     trace, and the node's muscle slots and repeat count;
//   - SeqEstimate and SpanEstimate both fail, or span ≤ work; work alone
//     may fail, and then only for a missing cardinality. On static trees
//     work equals the simulator's makespan at LP 1 and span its makespan
//     at LP 4096;
//   - the program run by the interpreter at LP 3 and by the simulator at
//     LP 3 gives the reference result and the same canonical activation
//     shape.
func FuzzCompile(f *testing.F) {
	for _, c := range []struct {
		seed   int64
		depth  uint8
		static bool
	}{
		{1000, 3, true}, {1001, 3, true}, {1002, 3, true}, {1003, 4, true},
		{0, 3, false}, {1, 3, false}, {2, 4, false}, {3, 1, false},
	} {
		f.Add(c.seed, c.depth, c.static)
	}
	f.Fuzz(func(t *testing.T, seed int64, depth uint8, static bool) {
		gen := Generate
		if static {
			gen = GenerateStatic
		}
		tree := gen(seed, int(depth%5))
		p, err := plan.Compile(tree.Node)
		if err != nil {
			t.Fatalf("compile (%s): %v", tree.Node, err)
		}

		steps := p.Steps()
		i := 0
		var walk func(nd *skel.Node, trace []*skel.Node)
		walk = func(nd *skel.Node, trace []*skel.Node) {
			trace = append(trace[:len(trace):len(trace)], nd)
			if i >= len(steps) {
				t.Fatalf("(%s): %d steps, tree has more nodes", tree.Node, len(steps))
			}
			st := steps[i]
			if st.Node() != nd || st.Index() != i || st.Op() != opOf[nd.Kind()] ||
				!reflect.DeepEqual(st.Trace(), trace) {
				t.Fatalf("(%s): step %d has node %s, index %d, op %v, trace depth %d; want %s, %d, %v, %d",
					tree.Node, i, st.Node(), st.Index(), st.Op(), len(st.Trace()), nd, i, opOf[nd.Kind()], len(trace))
			}
			if st.Exec() != nd.Exec() || st.Split() != nd.Split() || st.Merge() != nd.Merge() ||
				st.Cond() != nd.Cond() || st.N() != nd.N() {
				t.Fatalf("(%s): step %d muscle slots differ from its node", tree.Node, i)
			}
			i++
			for _, c := range nd.Children() {
				walk(c, trace)
			}
		}
		walk(tree.Node, nil)
		if i != len(steps) {
			t.Fatalf("(%s): %d steps, tree has %d nodes", tree.Node, len(steps), i)
		}

		est := seedEstimates(tree)
		work, werr := adg.SeqEstimate(est, tree.Node)
		span, serr := adg.SpanEstimate(est, tree.Node)
		var ie *adg.IncompleteError
		switch {
		case werr == nil && serr == nil:
			if span > work {
				t.Fatalf("(%s): span %v exceeds work %v", tree.Node, span, work)
			}
		case werr != nil && serr == nil:
			if !errors.As(werr, &ie) || !ie.Card {
				t.Fatalf("(%s): work failed (%v) where span did not", tree.Node, werr)
			}
		case werr == nil:
			t.Fatalf("(%s): span failed (%v) where work did not", tree.Node, serr)
		}
		if static {
			if werr != nil || serr != nil {
				t.Fatalf("(%s): static estimates failed: work %v, span %v", tree.Node, werr, serr)
			}
			if _, ms := simRunProgram(t, p, tree.Input, 1, nil); ms != work {
				t.Fatalf("(%s): sim LP 1 makespan %v != work %v", tree.Node, ms, work)
			}
			if _, ms := simRunProgram(t, p, tree.Input, 4096, nil); ms != span {
				t.Fatalf("(%s): sim LP 4096 makespan %v != span %v", tree.Node, ms, span)
			}
		}

		want, err := refEval(tree.Node, tree.Input)
		if err != nil {
			t.Fatalf("(%s): reference: %v", tree.Node, err)
		}
		var execGot, simGot any
		execShape := programShape(t, func(reg *event.Registry) { execGot = execRunProgram(t, p, tree.Input, 3, reg) })
		simShape := programShape(t, func(reg *event.Registry) { simGot, _ = simRunProgram(t, p, tree.Input, 3, reg) })
		if !reflect.DeepEqual(execGot, want) || !reflect.DeepEqual(simGot, want) {
			t.Fatalf("(%s): exec %v, sim %v, reference %v", tree.Node, execGot, simGot, want)
		}
		if execShape != simShape || execShape == "" {
			t.Fatalf("(%s): exec and sim shapes differ\nexec:\n%s\nsim:\n%s", tree.Node, execShape, simShape)
		}
	})
}
