package conformance

import (
	"reflect"
	"testing"

	"skandium/internal/adg"
	"skandium/internal/event"
	"skandium/internal/plan"
	"skandium/internal/refeval"
)

// FuzzOptimize checks the optimizer's contract on one generated tree per
// input: seed picks the tree, depth (taken mod 5, so at most 4) its height,
// and static whether it comes from the analytic subclass (GenerateStatic)
// or the full algebra (Generate). For every input:
//
//   - the optimized program keeps every step's op, index, trace and muscle
//     slots, and the raw program carries no annotation;
//   - analytic work and span of the optimized program equal the raw walk
//     (values, and whether an estimate is missing);
//   - the optimized program run by the interpreter at LP 3 and by the
//     simulator at LP 3 gives the reference result and the same canonical
//     activation shape.
func FuzzOptimize(f *testing.F) {
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
		raw, opt := compilePair(t, tree)

		rs, os := raw.Steps(), opt.Steps()
		if len(rs) != len(os) {
			t.Fatalf("(%s): %d raw steps, %d optimized", tree.Node, len(rs), len(os))
		}
		for i, r := range rs {
			o := os[i]
			if o.Op() != r.Op() || o.Index() != r.Index() || o.Node() != r.Node() ||
				!reflect.DeepEqual(o.Trace(), r.Trace()) {
				t.Fatalf("(%s): step %d changed op, index or trace", tree.Node, i)
			}
			if o.Exec() != r.Exec() || o.Split() != r.Split() || o.Merge() != r.Merge() ||
				o.Cond() != r.Cond() || o.N() != r.N() {
				t.Fatalf("(%s): step %d changed its muscle slots", tree.Node, i)
			}
			if r.Analytic() != nil {
				t.Fatalf("(%s): raw step %d carries an annotation", tree.Node, i)
			}
		}

		est := seedEstimates(tree)
		for _, e := range []struct {
			name string
			fn   func(p *plan.Program) (any, error)
		}{
			{"work", func(p *plan.Program) (any, error) { return adg.SeqEstimateProgram(est, p) }},
			{"span", func(p *plan.Program) (any, error) { return adg.SpanEstimateProgram(est, p) }},
		} {
			rv, rerr := e.fn(raw)
			ov, oerr := e.fn(opt)
			if rv != ov || (rerr == nil) != (oerr == nil) {
				t.Fatalf("(%s): %s %v (err %v) optimized, %v (err %v) raw",
					tree.Node, e.name, ov, oerr, rv, rerr)
			}
		}

		want, err := refeval.Eval(tree.Node, tree.Input)
		if err != nil {
			t.Fatalf("(%s): reference: %v", tree.Node, err)
		}
		var execGot, simGot any
		execShape := programShape(t, func(reg *event.Registry) { execGot = execRunProgram(t, opt, tree.Input, 3, reg) })
		simShape := programShape(t, func(reg *event.Registry) { simGot, _ = simRunProgram(t, opt, tree.Input, 3, reg) })
		if !reflect.DeepEqual(execGot, want) || !reflect.DeepEqual(simGot, want) {
			t.Fatalf("(%s): exec %v, sim %v, reference %v", tree.Node, execGot, simGot, want)
		}
		if execShape != simShape || execShape == "" {
			t.Fatalf("(%s): exec and sim shapes differ\nexec:\n%s\nsim:\n%s", tree.Node, execShape, simShape)
		}
	})
}
