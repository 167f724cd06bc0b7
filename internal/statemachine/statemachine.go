// Package statemachine implements the event-driven state machines of the
// paper's §4 (Fig. 3 for Seq, Fig. 4 for Map, and the analogous machines
// for pipe/farm/for/while/fork/if/d&c). Registered as an event listener on
// an execution, a Tracker:
//
//  1. updates the t(m) and |m| estimates on every muscle completion, using
//     the paper's formula t(m) ← ρ·(now-start) + (1-ρ)·t(m); and
//  2. maintains the dynamic activation tree (which skeleton activations
//     exist, which of their muscles have actually started/finished and
//     when) that the ADG builder turns into an Activity Dependency Graph.
//
// The paper's SMs keyed transitions on the event index i; here each
// activation index maps to one Instance and the events of that index drive
// its state.
package statemachine

import (
	"sync"
	"sync/atomic"
	"time"

	"skandium/internal/estimate"
	"skandium/internal/event"
	"skandium/internal/skel"
)

// ActivityRec is the actual execution record of one muscle invocation.
type ActivityRec struct {
	Start   time.Time
	End     time.Time
	Started bool
	Ended   bool
	// Iter disambiguates repeated invocations (while-condition checks,
	// d&c condition at each level).
	Iter int
}

// Duration returns the measured execution time (zero unless Ended).
func (a ActivityRec) Duration() time.Duration {
	if !a.Started || !a.Ended {
		return 0
	}
	return a.End.Sub(a.Start)
}

// Instance is one live skeleton activation: the paper's state machine
// instance for index Index, plus the actual timing knowledge accumulated so
// far. Fields are only written by the Tracker; readers must hold the
// Tracker's lock (see Tracker.WithTree).
type Instance struct {
	Node   *skel.Node
	Kind   skel.Kind
	Index  int64
	Parent int64

	// Started/Done bracket the whole activation (Skeleton Before/After).
	Started   bool
	StartTime time.Time
	Done      bool
	EndTime   time.Time

	// Exec is the seq execute muscle record.
	Exec ActivityRec
	// Split / Merge are the map/fork/d&c muscle records (one each per
	// activation).
	Split ActivityRec
	Merge ActivityRec
	// Conds are condition-muscle invocations in order (while: one per
	// iteration check; if and d&c: a single entry).
	Conds []ActivityRec

	// ActualCard is the split cardinality once the split completed, else -1.
	ActualCard int
	// CondClosed is set when a while/d&c condition returned false (the
	// iteration count is then exact, not an estimate).
	CondClosed bool
	// TrueIters is the number of true condition verdicts seen (while).
	TrueIters int
	// Depth is the d&c recursion depth of this activation (recovered from
	// its condition events).
	Depth int
	// Branch is the structural slot in the parent (fork branch, pipe
	// stage, if branch, map sub-problem index).
	Branch int
	// Iter is the iteration slot in the parent (while/for body number).
	Iter int

	// Children are nested activations in creation order.
	Children []*Instance
}

// Tracker listens to one execution's events and maintains the activation
// tree. Create one per Root, register via Listener(), and hand it to the
// ADG builder.
//
// A tracker built with NewEstimator keeps no tree: nobody will read one (the
// execution has no controller), so an activation's Instance lives only from
// its Skeleton/Before to its Skeleton/After — long enough to time its
// muscles — and is then recycled. The estimates it feeds are the same.
type Tracker struct {
	est           *estimate.Registry
	estimatesOnly bool // fixed at construction (NewEstimator)

	// ver counts mutations of the activation tree (instance creation,
	// completion, muscle records). pendingBranch bookkeeping does not bump
	// it: a pending slot only matters once the child's Skeleton/Before
	// arrives, which bumps. The counter only advances, so two equal reads
	// bracket an unchanged tree.
	ver atomic.Uint64

	mu        sync.Mutex
	released  bool // set by Release: no tree, later events ignored
	instances map[int64]*Instance
	roots     []*Instance
	free      []*Instance // estimates-only: finished activations, for reuse
	// pendingBranch maps a worker id to the (parent index, branch, iter)
	// announced by the last NestedSkel/Before event on that worker; the
	// next Skeleton/Before on the same worker consumes it. This is how the
	// structural slot of a child activation is recovered, since the
	// child's own events do not carry it.
	pendingBranch map[int]pending
}

type pending struct {
	parent int64
	branch int
	iter   int
}

// NewTracker builds a tracker feeding est. est must not be nil.
func NewTracker(est *estimate.Registry) *Tracker {
	if est == nil {
		panic("statemachine: nil estimate registry")
	}
	return &Tracker{
		est:           est,
		instances:     make(map[int64]*Instance),
		pendingBranch: make(map[int]pending),
	}
}

// NewEstimator builds a tracker that feeds est and keeps no activation
// tree (see Tracker): for executions nothing will ever predict.
func NewEstimator(est *estimate.Registry) *Tracker {
	tr := NewTracker(est)
	tr.estimatesOnly = true
	return tr
}

// Release drops the activation tree and ignores every later event: the
// execution has resolved, nothing will be predicted from the tree again, and
// whoever still holds the tracker (a finished job's handle) should not hold
// a few hundred instances with it. The estimates are untouched.
func (tr *Tracker) Release() {
	tr.mu.Lock()
	tr.released = true
	tr.instances, tr.roots, tr.free, tr.pendingBranch = nil, nil, nil, nil
	tr.mu.Unlock()
}

// Listener adapts the tracker to the event.Listener interface.
func (tr *Tracker) Listener() event.Listener {
	return event.Func(func(e *event.Event) any {
		tr.handle(e)
		return e.Param
	})
}

// WithTree runs fn with the activation roots under the tracker's lock. fn
// must not retain the instances after returning; the ADG builder copies
// what it needs.
func (tr *Tracker) WithTree(fn func(roots []*Instance)) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	fn(tr.roots)
}

// Root returns the first root activation (nil before the execution enters
// its outermost skeleton).
func (tr *Tracker) Root() *Instance {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.roots) == 0 {
		return nil
	}
	return tr.roots[0]
}

func (tr *Tracker) handle(e *event.Event) {
	if e.Err != nil {
		// Timing of failed muscle attempts is not knowledge — estimators
		// must only learn from successes. A terminal Fault still closes the
		// activation, so the ADG stops treating it as running work.
		if e.Where == event.Fault {
			tr.mu.Lock()
			if in := tr.inst(e); in != nil && !in.Done {
				in.Done = true
				in.EndTime = e.Time
				tr.ver.Add(1)
				tr.retire(in)
			}
			tr.mu.Unlock()
		}
		return
	}
	if e.Where == event.NestedSkel && tr.estimatesOnly {
		return // structural slots only matter in a tree
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.released {
		return
	}
	switch e.Where {
	case event.Skeleton:
		tr.onSkeleton(e)
		tr.ver.Add(1)
	case event.Split:
		tr.onSplit(e)
		tr.ver.Add(1)
	case event.Merge:
		tr.onMerge(e)
		tr.ver.Add(1)
	case event.Condition:
		tr.onCondition(e)
		tr.ver.Add(1)
	case event.NestedSkel:
		tr.onNested(e)
	}
}

// retire forgets a finished activation when no tree is kept. The instance
// was never linked anywhere else, so it can be handed out again.
func (tr *Tracker) retire(in *Instance) {
	if !tr.estimatesOnly {
		return
	}
	delete(tr.instances, in.Index)
	if in.Parent == event.NoParent {
		tr.free = nil // the execution is over: keep nothing for its handle to pin
		return
	}
	tr.free = append(tr.free, in)
}

// Version returns the tree mutation counter. Read it before snapshotting
// the tree (WithTree); an equal read later proves the tree is unchanged in
// between, so results derived from the snapshot are still current.
func (tr *Tracker) Version() uint64 { return tr.ver.Load() }

func (tr *Tracker) inst(e *event.Event) *Instance {
	return tr.instances[e.Index]
}

func (tr *Tracker) onSkeleton(e *event.Event) {
	if e.When == event.Before {
		if in := tr.inst(e); in != nil {
			// A retry re-raised the activation's Before: restart its clock
			// so the estimator times only the succeeding attempt, and do
			// not duplicate the instance in the tree.
			in.StartTime = e.Time
			in.Done = false
			return
		}
		var in *Instance
		if n := len(tr.free); n > 0 {
			in, tr.free = tr.free[n-1], tr.free[:n-1]
		} else {
			in = new(Instance)
		}
		*in = Instance{
			Node:       e.Node,
			Kind:       e.Node.Kind(),
			Index:      e.Index,
			Parent:     e.Parent,
			Started:    true,
			StartTime:  e.Time,
			ActualCard: -1,
			Conds:      in.Conds[:0],
		}
		tr.instances[e.Index] = in
		if tr.estimatesOnly {
			return
		}
		if p, ok := tr.pendingBranch[e.Worker]; ok && p.parent == e.Parent {
			in.Branch = p.branch
			in.Iter = p.iter
			delete(tr.pendingBranch, e.Worker)
		}
		if parent, ok := tr.instances[e.Parent]; ok {
			parent.Children = append(parent.Children, in)
		} else {
			tr.roots = append(tr.roots, in)
		}
		return
	}
	in := tr.inst(e)
	if in == nil {
		return
	}
	in.Done = true
	in.EndTime = e.Time
	if in.Kind == skel.Seq {
		// Fig. 3: t(fe) ← ρ(now-eti) + (1-ρ)t(fe) on seq@a(i).
		in.Exec = ActivityRec{Start: in.StartTime, End: e.Time, Started: true, Ended: true}
		tr.est.ObserveDuration(in.Node.Exec().ID(), e.Time.Sub(in.StartTime))
	}
	tr.retire(in)
}

func (tr *Tracker) onSplit(e *event.Event) {
	in := tr.inst(e)
	if in == nil {
		return
	}
	if e.When == event.Before {
		in.Split.Start, in.Split.Started = e.Time, true
		return
	}
	// Fig. 4 I→S: t(fs) and |fs| updated on map@as(i, fsCard).
	in.Split.End, in.Split.Ended = e.Time, true
	in.ActualCard = e.Card
	fs := in.Node.Split()
	tr.est.ObserveDuration(fs.ID(), in.Split.Duration())
	tr.est.ObserveCard(fs.ID(), float64(e.Card))
}

func (tr *Tracker) onMerge(e *event.Event) {
	in := tr.inst(e)
	if in == nil {
		return
	}
	if e.When == event.Before {
		in.Merge.Start, in.Merge.Started = e.Time, true
		return
	}
	// Fig. 4 M→F: t(fm) updated on map@am(i).
	in.Merge.End, in.Merge.Ended = e.Time, true
	tr.est.ObserveDuration(in.Node.Merge().ID(), in.Merge.Duration())
}

func (tr *Tracker) onCondition(e *event.Event) {
	in := tr.inst(e)
	if in == nil {
		return
	}
	if e.When == event.Before {
		if n := len(in.Conds); n > 0 && !in.Conds[n-1].Ended && in.Conds[n-1].Iter == e.Iter {
			// Retry of the same condition check: restart its clock.
			in.Conds[n-1].Start = e.Time
			return
		}
		in.Conds = append(in.Conds, ActivityRec{Start: e.Time, Started: true, Iter: e.Iter})
		return
	}
	if len(in.Conds) == 0 || in.Conds[len(in.Conds)-1].Ended {
		// After without Before (should not happen); synthesize.
		in.Conds = append(in.Conds, ActivityRec{Start: e.Time, Started: true, Iter: e.Iter})
	}
	rec := &in.Conds[len(in.Conds)-1]
	rec.End, rec.Ended = e.Time, true
	fc := in.Node.Cond()
	tr.est.ObserveDuration(fc.ID(), rec.Duration())
	if in.Kind == skel.DaC {
		in.Depth = e.Iter
	}
	switch in.Kind {
	case skel.While:
		if e.Cond {
			in.TrueIters++
		} else {
			in.CondClosed = true
			// |fc| for while: how many times the condition held.
			tr.est.ObserveCard(fc.ID(), float64(in.TrueIters))
		}
	case skel.DaC:
		if !e.Cond {
			in.CondClosed = true
			// |fc| for d&c: the depth of the recursion tree (paper §4).
			tr.est.ObserveCard(fc.ID(), float64(e.Iter))
		}
	}
}

func (tr *Tracker) onNested(e *event.Event) {
	if e.When == event.Before {
		tr.pendingBranch[e.Worker] = pending{parent: e.Index, branch: e.Branch, iter: e.Iter}
		return
	}
	delete(tr.pendingBranch, e.Worker)
}

// InstanceCount returns the number of live activations tracked so far.
func (tr *Tracker) InstanceCount() int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.instances)
}
