package exec

import (
	"sync"
	"sync/atomic"
)

// Task is one schedulable unit of skeleton interpretation. A task carries
// the current partial solution (param) and a LIFO stack of instructions to
// run on it. Data-parallel instructions fork child tasks; the parent task is
// parked (it holds no worker) until its last child completes, at which point
// the child's worker re-submits the parent. This continuation design is
// what makes the level of parallelism a pure resource knob: a map with LP=1
// still terminates, it just runs its branches sequentially.
//
// Tasks are recycled through a sync.Pool: Step releases a task on its
// terminal paths (complete, failure, cancellation), when no other goroutine
// can still reference it — a task taken from a queue has no outstanding
// children (a forked parent is parked, not queued, until its last child
// re-submits it).
type Task struct {
	root   *Root
	parent *Task
	// branch is this task's slot in parent.results; a root task's
	// Root.Inject slot.
	branch int

	param any
	stack []Instr

	// Outputs of the last split and condition Call, read by the
	// continuation below it (execute and merge results replace param).
	split []any
	cond  bool

	// results and pending are set by fork before children are submitted.
	// Each child writes only its own slot, so no lock is needed; pending is
	// decremented atomically as children complete.
	results []any
	pending atomic.Int32
}

var taskPool = sync.Pool{New: func() any { return new(Task) }}

func newTask(root *Root, parent *Task, branch int, param any, program ...Instr) *Task {
	t := taskPool.Get().(*Task)
	t.root, t.parent, t.branch, t.param = root, parent, branch, param
	t.stack = append(t.stack, program...)
	return t
}

// releaseTask zeroes t and returns it to the pool, keeping the stack's
// backing array. Callers must guarantee no other goroutine references t.
func releaseTask(t *Task) {
	for i := range t.stack {
		t.stack[i] = nil
	}
	t.stack = t.stack[:0]
	t.root, t.parent, t.branch = nil, nil, 0
	t.param, t.split, t.cond, t.results = nil, nil, false, nil
	t.pending.Store(0)
	taskPool.Put(t)
}

// push adds instructions to the stack; the last pushed runs first.
func (t *Task) push(in ...Instr) { t.stack = append(t.stack, in...) }

// pop removes and returns the top instruction. The caller guarantees the
// stack is non-empty.
func (t *Task) pop() Instr {
	in := t.stack[len(t.stack)-1]
	t.stack[len(t.stack)-1] = nil
	t.stack = t.stack[:len(t.stack)-1]
	return in
}

// fork prepares the bookkeeping for n children, which the instruction then
// returns from interpret so Step submits them after parking this task.
func (t *Task) fork(n int) {
	t.results = make([]any, n)
	t.pending.Store(int32(n))
}

// takeResults consumes the children results gathered by fork.
func (t *Task) takeResults() []any {
	rs := t.results
	t.results = nil
	return rs
}

// childDone records a child's result; the last child re-submits the parent
// from its worker w.
func (t *Task) childDone(w *Worker, branch int, result any) {
	t.results[branch] = result
	if t.pending.Add(-1) == 0 {
		t.root.sched.Submit(w, t)
	}
}

// complete is called when the stack is empty: the task's value is final.
// The task is recycled before the parent is notified (the parent never
// reads the child again).
func (t *Task) complete(w *Worker) {
	parent, branch, param, root := t.parent, t.branch, t.param, t.root
	releaseTask(t)
	if parent != nil {
		parent.childDone(w, branch, param)
		return
	}
	root.sched.Done(root, branch, param)
}

// failed routes an instruction error to the enclosing fan-out per the
// root's partial-failure policy, or fails the root, and retires t.
func (t *Task) failed(w *Worker, err error) {
	if !t.absorb(w, err) {
		t.root.fail(err)
	}
	releaseTask(t)
}
