package exec

import (
	"fmt"

	"skandium/internal/event"
	"skandium/internal/plan"
	"skandium/internal/skel"
)

// actx is the context of one skeleton activation, shared by every event it
// raises. trace is usually the step's static trace; d&c recursion
// substitutes its dynamically grown one.
type actx struct {
	step   *plan.Step
	trace  []*skel.Node
	idx    int64
	parent int64
}

// nd returns the activation's skeleton node.
func (a actx) nd() *skel.Node { return a.step.Node() }

// em builds an emitter for worker w.
func (a actx) em(r *Root, w *Worker) emitter {
	return emitter{root: r, w: w, nd: a.step.Node(), trace: a.trace, idx: a.idx, parent: a.parent}
}

// begin allocates the activation index and raises the Skeleton/Before event.
func begin(step *plan.Step, parent int64, trace []*skel.Node, w *Worker, t *Task) actx {
	a := actx{step: step, trace: trace, idx: t.root.nextIndex(), parent: parent}
	t.param = a.em(t.root, w).emit(event.Before, event.Skeleton, t.param, nil)
	return a
}

// phase is where a resumable activation continues when popped again.
type phase uint8

const (
	enter   phase = iota // open the activation and start the op
	check                // raise the condition of while iteration iter
	decide               // the condition's verdict is on the task
	fanned               // the split's parts are on the task
	merge                // every forked child has completed
	merged               // the merge result is the task's value
	closing              // the body is done: close the activation
)

// actInst interprets one activation of a program step — the op semantics
// of every plan.Op in one place. Ops that invoke several muscles or wait
// for nested evaluations re-push the instruction with the phase to resume
// in, so one pooled object carries an activation from its Skeleton/Before
// to its Skeleton/After event. The events are the paper's: a map raises
// skeleton begin, before/after split, before/after each nested skeleton,
// before/after merge and skeleton end; seq(fe)@b(i) and seq(fe)@a(i)
// (Fig. 3) bracket the execute muscle; condition events carry the while
// iteration or d&c depth in Iter, nested-skeleton events the stage or
// branch in Branch and the iteration in Iter.
type actInst struct {
	a     actx
	iter  int // while iteration, d&c recursion depth
	phase phase
}

var actPool instrPool[actInst]

// actFor builds the per-step entry of one activation of step. depth is the
// d&c recursion level (0 elsewhere).
func actFor(step *plan.Step, parent int64, trace []*skel.Node, depth int) Instr {
	if step.Op() > plan.OpRecurse {
		// An unknown op is unreachable through Compile, but a forged or
		// future Step must fail the root cleanly instead of panicking the
		// worker goroutine.
		return badOpInst{op: step.Op()}
	}
	in := actPool.get()
	in.a = actx{step: step, trace: trace, parent: parent}
	in.iter = depth
	return in
}

// resume re-pushes the activation to continue in ph once the instructions
// pushed above it have run.
func (in *actInst) resume(t *Task, ph phase) {
	in.phase = ph
	t.push(in)
}

func (in *actInst) interpret(w *Worker, t *Task) ([]*Task, error) {
	r := t.root
	if in.phase == enter {
		in.a = begin(in.a.step, in.a.parent, in.a.trace, w, t)
	}
	a, step := in.a, in.a.step
	em := a.em(r, w)
	switch in.phase {
	case merged:
		t.param = em.emit(event.After, event.Merge, t.param, nil)
		fallthrough
	case closing:
		t.param = em.emit(event.After, event.Skeleton, t.param, nil)
		actPool.put(in)
		return nil, nil
	case merge:
		results, ferr := applyPartial(r, t.takeResults())
		if ferr != nil {
			// Every branch failed: close the activation with a Fault event and
			// the aggregate error (absorbable one level up, like any failure).
			em.emit(event.After, event.Fault, nil, func(e *event.Event) { e.Err = ferr })
			return nil, ferr
		}
		src := any(results)
		p, err := mergeInput(a, em.emit(event.Before, event.Merge, src, nil))
		if err != nil {
			return nil, err
		}
		in.resume(t, merged)
		pushCall(t, a, step.Merge(), p, src, 0)
		return nil, nil
	}

	switch step.Op() {
	case plan.OpExec:
		in.resume(t, closing)
		pushCall(t, a, step.Exec(), t.param, nil, 0)
	case plan.OpWrap:
		// farm(∆): task replication comes from the pool running many farm
		// activations at once; one activation brackets one nested evaluation.
		in.resume(t, closing)
		pushNested(t, a, step.Child(0), 0, 0)
	case plan.OpStages:
		// pipe: pipeline parallelism across inputs emerges from the pool
		// running several pipe activations concurrently.
		in.resume(t, closing)
		stages := step.Children()
		for i := len(stages) - 1; i >= 0; i-- {
			pushNested(t, a, stages[i], i, 0)
		}
	case plan.OpRepeat:
		in.resume(t, closing)
		for i := step.N() - 1; i >= 0; i-- {
			pushNested(t, a, step.Child(0), 0, i)
		}
	case plan.OpLoop:
		if in.phase != decide {
			in.askCondition(w, t)
			return nil, nil
		}
		if !in.verdict(w, t) {
			t.param = em.emit(event.After, event.Skeleton, t.param, nil)
			actPool.put(in)
			return nil, nil
		}
		iter := in.iter
		in.iter++
		in.resume(t, check)
		pushNested(t, a, step.Child(0), 0, iter)
	case plan.OpSelect:
		// if: the paper's autonomic layer leaves If unsupported; the engine
		// runs it and the ADG layer handles it as a documented extension.
		if in.phase == enter {
			in.askCondition(w, t)
			return nil, nil
		}
		branch := 0
		if !in.verdict(w, t) {
			branch = 1
		}
		in.resume(t, closing)
		pushNested(t, a, step.Child(branch), branch, 0)
	case plan.OpFanOut, plan.OpFanFixed:
		if in.phase == enter {
			in.askSplit(w, t)
			return nil, nil
		}
		parts := in.parts(w, t)
		if subs := step.Children(); step.Op() == plan.OpFanFixed && len(parts) != len(subs) {
			return nil, fmt.Errorf("skandium: fork split produced %d sub-problems for %d nested skeletons",
				len(parts), len(subs))
		}
		in.resume(t, merge)
		return forkChildren(a, t, parts, func(b int) Instr {
			if step.Op() == plan.OpFanOut {
				return instrFor(step.Child(0), a.idx)
			}
			return instrFor(step.Child(b), a.idx)
		}), nil
	case plan.OpRecurse:
		// d&c: each recursion level is its own activation. The depth travels
		// in Iter — what the estimator's |fc| tracks for d&c (the estimated
		// depth of the recursion tree, paper §4). The trace grows with the
		// depth, so beyond depth 0 it cannot come from the static step; it is
		// extended once per activation and shared by all its branches.
		switch in.phase {
		case enter:
			in.askCondition(w, t)
			return nil, nil
		case decide:
			if in.verdict(w, t) {
				in.askSplit(w, t)
				return nil, nil
			}
			// Leaf: solve with the nested skeleton, then close.
			leaf := step.Child(0)
			var leafInstr Instr
			if in.iter > 0 {
				leafInstr = actFor(leaf, a.idx, plan.ExtendTrace(a.trace, leaf.Node()), 0)
			} else {
				leafInstr = instrFor(leaf, a.idx)
			}
			depth := in.iter
			in.resume(t, closing)
			t.push(newNested(a, event.After, 0, depth), leafInstr, newNested(a, event.Before, 0, depth))
		default: // fanned
			parts := in.parts(w, t)
			branchTrace, depth := plan.ExtendTrace(a.trace, step.Node()), in.iter+1
			in.resume(t, merge)
			return forkChildren(a, t, parts, func(int) Instr {
				return actFor(step, a.idx, branchTrace, depth)
			}), nil
		}
	}
	return nil, nil
}

// askCondition raises the Before/Condition event for iteration in.iter and
// awaits the verdict. The task's value becomes the event's (possibly
// replaced) parameter, which the After/Condition event reports.
func (in *actInst) askCondition(w *Worker, t *Task) {
	src, iter := t.param, in.iter
	t.param = in.a.em(t.root, w).emit(event.Before, event.Condition, src, func(e *event.Event) { e.Iter = iter })
	in.resume(t, decide)
	pushCall(t, in.a, in.a.step.Cond(), t.param, src, iter)
}

// verdict raises the After/Condition event and returns the condition's
// verdict.
func (in *actInst) verdict(w *Worker, t *Task) bool {
	c, iter := t.cond, in.iter
	t.param = in.a.em(t.root, w).emit(event.After, event.Condition, t.param, func(e *event.Event) {
		e.Cond, e.Iter = c, iter
	})
	return c
}

// askSplit raises the Before/Split event and awaits the parts.
func (in *actInst) askSplit(w *Worker, t *Task) {
	p := in.a.em(t.root, w).emit(event.Before, event.Split, t.param, nil)
	in.resume(t, fanned)
	pushCall(t, in.a, in.a.step.Split(), p, t.param, 0)
}

// parts raises the After/Split event and returns the (possibly replaced)
// sub-problems.
func (in *actInst) parts(w *Worker, t *Task) []any {
	parts := t.split
	t.split = nil
	after := in.a.em(t.root, w).emit(event.After, event.Split, any(parts), func(e *event.Event) {
		e.Card = len(parts)
	})
	if repl, ok := after.([]any); ok {
		parts = repl
	}
	return parts
}

// forkChildren parks t behind len(parts) children, each running the program
// produced by prog for its branch, bracketed by the nested-skeleton events
// of activation a. With zero parts no children are created and the
// continuation already pushed on t runs immediately with empty results.
func forkChildren(a actx, t *Task, parts []any, prog func(branch int) Instr) []*Task {
	t.fork(len(parts))
	if len(parts) == 0 {
		return nil
	}
	children := make([]*Task, len(parts))
	for b, p := range parts {
		children[b] = newTask(t.root, t, b, p,
			newNested(a, event.After, b, 0),
			prog(b),
			newNested(a, event.Before, b, 0),
		)
	}
	return children
}

// pushNested schedules one nested evaluation of child, bracketed by the
// nested-skeleton events of activation a.
func pushNested(t *Task, a actx, child *plan.Step, branch, iter int) {
	t.push(newNested(a, event.After, branch, iter), instrFor(child, a.idx), newNested(a, event.Before, branch, iter))
}

// nestedInst raises one "before/after nested skeleton" event of an
// enclosing activation; a pair brackets every child and stage program.
type nestedInst struct {
	a      actx
	when   event.When
	branch int
	iter   int
}

var nestedPool instrPool[nestedInst]

func newNested(a actx, when event.When, branch, iter int) *nestedInst {
	in := nestedPool.get()
	in.a, in.when, in.branch, in.iter = a, when, branch, iter
	return in
}

func (in *nestedInst) interpret(w *Worker, t *Task) ([]*Task, error) {
	t.param = in.a.em(t.root, w).emit(in.when, event.NestedSkel, t.param, func(e *event.Event) {
		e.Branch, e.Iter = in.branch, in.iter
	})
	nestedPool.put(in)
	return nil, nil
}
