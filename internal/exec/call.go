package exec

import (
	"fmt"

	"skandium/internal/event"
	"skandium/internal/muscle"
)

// Call is one muscle invocation (execute, split, merge or condition) and
// the interpreter's only yield point: an instruction raises the
// invocation's Before event, pushes its own continuation, then pushes the
// Call. The pool interprets a popped Call in place; Step hands it to the
// simulator, which passes it back once its virtual cost has elapsed.
// Interpreting it invokes the muscle under the root's fault policy and
// leaves the output on the task for the continuation: execute and merge
// results replace the value, split parts and condition verdicts go to their
// own fields.
type Call struct {
	a    actx
	m    *muscle.Muscle
	in   any // the first attempt's input
	src  any // what a retry re-raises the Before event on (split, merge, condition)
	iter int // the condition's Iter
}

var callPool instrPool[Call]

// Muscle returns the muscle to invoke.
func (c *Call) Muscle() *muscle.Muscle { return c.m }

// Param returns the input of the invocation: what a cost model prices.
func (c *Call) Param() any { return c.in }

// pushCall schedules the invocation of m on in, as the top of t's stack.
func pushCall(t *Task, a actx, m *muscle.Muscle, in, src any, iter int) {
	c := callPool.get()
	c.a, c.m, c.in, c.src, c.iter = a, m, in, src, iter
	t.push(c)
}

// interpret invokes the muscle. Before each retry the invocation's Before
// event is raised again, so estimators time each attempt separately: an
// execute re-raises Skeleton/Before on the current value (restarting the
// activation clock), the others re-raise their own event on the value the
// first attempt's event was raised on.
func (c *Call) interpret(w *Worker, t *Task) ([]*Task, error) {
	em := c.a.em(t.root, w)
	a, m, in, src, iter := c.a, c.m, c.in, c.src, c.iter
	callPool.put(c)
	var err error
	switch m.Kind() {
	case muscle.Execute:
		var res any
		res, err = runAttempts(em, m, in, func() (any, error) {
			t.param = em.emit(event.Before, event.Skeleton, t.param, nil)
			return t.param, nil
		}, (*muscle.Muscle).CallExecute)
		if err == nil {
			t.param = res
		}
	case muscle.Split:
		t.split, err = runAttempts(em, m, in, func() (any, error) {
			return em.emit(event.Before, event.Split, src, nil), nil
		}, (*muscle.Muscle).CallSplit)
	case muscle.Merge:
		var res any
		res, err = runAttempts(em, m, in.([]any), func() ([]any, error) {
			p, err := mergeInput(a, em.emit(event.Before, event.Merge, src, nil))
			if err != nil {
				return nil, err
			}
			return p.([]any), nil
		}, (*muscle.Muscle).CallMerge)
		if err == nil {
			t.param = res
		}
	case muscle.Condition:
		t.cond, err = runAttempts(em, m, in, func() (any, error) {
			return em.emit(event.Before, event.Condition, src, func(e *event.Event) { e.Iter = iter }), nil
		}, (*muscle.Muscle).CallCondition)
	}
	return nil, err
}

// mergeInput checks that a listener of the Before/Merge event left the
// merge a []any to work on.
func mergeInput(a actx, p any) (any, error) {
	if _, ok := p.([]any); !ok {
		return nil, fmt.Errorf("skandium: listener replaced merge input of %s with %T (want []any)",
			a.nd().Kind(), p)
	}
	return p, nil
}
