package exec

import (
	"fmt"
	"sync"
	"time"

	"skandium/internal/clock"
	"skandium/internal/event"
	"skandium/internal/muscle"
	"skandium/internal/plan"
	"skandium/internal/skel"
)

// Instr is one step of skeleton interpretation. interpret may mutate the
// task (its param and instruction stack) and may return child tasks; when it
// does, Step submits the children and parks the task until they all
// complete. A popped instruction owns itself: pooled instruction types
// either re-push themselves to resume later or return themselves to their
// pool before interpret returns.
type Instr interface {
	interpret(w *Worker, t *Task) (children []*Task, err error)
}

// instrPool recycles one instruction type through a sync.Pool.
type instrPool[T any] struct{ p sync.Pool }

func (ip *instrPool[T]) get() *T {
	if v := ip.p.Get(); v != nil {
		return v.(*T)
	}
	return new(T)
}

func (ip *instrPool[T]) put(x *T) {
	var zero T
	*x = zero
	ip.p.Put(x)
}

// Worker is one execution slot of a driver: a pool goroutine with its
// work-stealing deque, or one virtual worker of the simulator (no deque).
// ID is what events report as their Worker.
//
// A worker also keeps its latest clock reading, which events reuse instead
// of reading the clock each (see emitter.emit). The reading is state of the
// worker's own goroutine: only the driver running the worker touches it.
type Worker struct {
	ID int
	dq *deque

	now  time.Time
	held bool // now may stamp the next event
}

// read takes a fresh reading of clk and keeps it for the events after it.
func (w *Worker) read(clk clock.Clock) time.Time {
	w.now, w.held = clk.Now(), true
	return w.now
}

// hold keeps now, a reading the driver already took, for the next events.
func (w *Worker) hold(now time.Time) { w.now, w.held = now, true }

// drop forgets the kept reading: time the events must see has passed (a
// muscle attempt), or the driver cannot vouch for it (a simulator step
// starts at a later virtual instant).
func (w *Worker) drop() { w.held = false }

// Scheduler is the driver-specific half of interpretation: who runs the
// next task. *Pool implements it with work-stealing deques; the simulator
// with a LIFO queue and a run heap on its virtual clock.
type Scheduler interface {
	// Submit makes t runnable: a root task started from outside (w is nil),
	// a child forked on w, or a parent whose last child just completed on w.
	Submit(w *Worker, t *Task)
	// Done receives the final value of the root task r.Inject started in
	// slot.
	Done(r *Root, slot int, result any)
}

// Step is the simulator's entry to the interpreter loop both drivers share
// (drive). When call is non-nil — the Call an earlier Step on t returned —
// Step invokes it first. It then runs t's instructions on w until the task
// pops its next muscle call, which it returns uninvoked for the driver to
// hold for the muscle's virtual cost, or leaves the worker — completed,
// parked behind forked children, failed or canceled — and returns nil.
func Step(w *Worker, t *Task, call *Call) *Call {
	w.drop()
	return drive(w, t, call, true)
}

// drive interprets t on w until the task leaves the worker or, when yield is
// set, pops a muscle call (returned uninvoked). Without yield — the pool —
// a Call is interpreted in place like any other instruction: the muscle
// runs at once, on the worker.
//
// A panic escaping an instruction — muscle wrappers already convert theirs,
// so in practice a panicking event listener — fails the root instead of
// killing the driver.
func drive(w *Worker, t *Task, call *Call, yield bool) (next *Call) {
	r := t.root
	defer func() {
		if rec := recover(); rec != nil {
			r.fail(fmt.Errorf("skandium: panic during skeleton interpretation (listener?): %v", rec))
			next = nil
		}
	}()
	if call != nil {
		if _, err := call.interpret(w, t); err != nil {
			t.failed(w, err)
			return nil
		}
	}
	for {
		if r.Canceled() {
			releaseTask(t)
			return nil
		}
		if len(t.stack) == 0 {
			t.complete(w)
			return nil
		}
		in := t.pop()
		if c, ok := in.(*Call); ok && yield {
			return c
		}
		children, err := in.interpret(w, t)
		if err != nil {
			t.failed(w, err)
			return nil
		}
		if children != nil {
			for _, c := range children {
				r.sched.Submit(w, c)
			}
			return nil
		}
	}
}

// instrFor builds the entry instruction for one activation of the program
// step. parent is the activation index of the enclosing skeleton
// activation (event.NoParent at the root). The instruction's trace is the
// step's precompiled static trace; divide&conquer re-entry with a
// dynamically grown trace calls actFor directly.
func instrFor(step *plan.Step, parent int64) Instr {
	return actFor(step, parent, step.Trace(), 0)
}

// badOpInst fails the root for a program operation the interpreter does not
// know.
type badOpInst struct{ op plan.Op }

func (in badOpInst) interpret(w *Worker, t *Task) ([]*Task, error) {
	return nil, fmt.Errorf("skandium: unknown program operation %v", in.op)
}

// MuscleError wraps an error (or recovered panic) raised by a muscle, adding
// the muscle identity and the skeleton trace for diagnosis.
type MuscleError struct {
	Muscle *muscle.Muscle
	Trace  []*skel.Node
	Err    error
}

// Error implements error.
func (e *MuscleError) Error() string {
	loc := "?"
	if len(e.Trace) > 0 {
		loc = e.Trace[len(e.Trace)-1].Kind().String()
	}
	return fmt.Sprintf("skandium: muscle %s in %s failed: %v", e.Muscle, loc, e.Err)
}

// Unwrap exposes the underlying error.
func (e *MuscleError) Unwrap() error { return e.Err }

// emitter bundles the arguments common to every event of one activation.
type emitter struct {
	root   *Root
	w      *Worker
	nd     *skel.Node
	trace  []*skel.Node
	idx    int64
	parent int64
}

// emit raises one event and returns the (possibly listener-replaced)
// partial solution. mod, when non-nil, sets the extra payload fields. When
// no listener can match the event's slot, the Event is never constructed —
// the emission costs two atomic loads. Events are pooled: they are valid
// only during the listener calls.
//
// The event is stamped with the worker's kept reading unless it opens a
// muscle's timing (see opensTiming) or the worker holds none: a Before
// that starts a muscle's clock reads afresh, so the listeners that ran
// before it never count as the muscle's time, and the first event after a
// muscle attempt reads afresh because the worker dropped its reading then.
// Every other event reuses the reading, since what a listener spends
// between two such events is no muscle's time.
func (em emitter) emit(when event.When, where event.Where, param any, mod func(*event.Event)) any {
	reg := em.root.events
	if !reg.Wants(em.nd.Kind(), when, where) {
		return param
	}
	e := event.Acquire()
	e.Node = em.nd
	e.Trace = em.trace
	e.Index = em.idx
	e.Parent = em.parent
	e.When = when
	e.Where = where
	e.Param = param
	e.Time = em.stamp(when, where)
	e.Worker = em.w.ID
	if mod != nil {
		mod(e)
	}
	p := reg.Emit(e)
	event.Release(e)
	return p
}

// stamp returns the time an event of this activation is stamped with.
func (em emitter) stamp(when event.When, where event.Where) time.Time {
	if w := em.w; w.held && !opensTiming(em.nd.Kind(), when, where) {
		return w.now
	}
	return em.w.read(em.root.clk)
}

// opensTiming reports whether the event starts a muscle's clock: seq's
// Skeleton/Before (the execute muscle's t(fe), Fig. 3) and the Before of a
// split, merge or condition.
func opensTiming(k skel.Kind, when event.When, where event.Where) bool {
	if when != event.Before {
		return false
	}
	switch where {
	case event.Split, event.Merge, event.Condition:
		return true
	case event.Skeleton:
		return k == skel.Seq
	}
	return false
}
