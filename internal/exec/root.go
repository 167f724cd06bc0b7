// Package exec is the skeleton interpreter: the one instruction set that
// runs a compiled plan.Program, raising the event hooks the autonomic layer
// observes, plus its real driver — a task pool with a resizable level of
// parallelism. Every driver runs the same loop; a driver supplies only a
// Scheduler (who runs the next task) and decides when each muscle Call runs
// (the pool at once, internal/sim through Step, after its virtual cost).
package exec

import (
	"math/rand"
	"sync"
	"sync/atomic"

	"skandium/internal/clock"
	"skandium/internal/event"
	"skandium/internal/plan"
	"skandium/internal/skel"
)

// Root is one end-to-end execution of a skeleton program for one input
// parameter. It owns the activation-index counter, the listener registry
// the execution reports to, and the future the caller waits on. Several
// roots may share one pool.
type Root struct {
	sched  Scheduler
	events *event.Registry
	clk    clock.Clock

	idx      atomic.Int64
	canceled atomic.Bool
	future   *Future

	// Fault tolerance: the policy envelope (immutable after Start), the
	// jitter source it draws from (seeded by the first backoff that needs
	// it: most executions never retry, and a source is 5 KB and 10 µs), and
	// the branch failures absorbed by partial-failure policies.
	faults      FaultConfig
	ctrs        *FaultCounters
	rngMu       sync.Mutex
	rng         *rand.Rand
	failMu      sync.Mutex
	branchFails []BranchFailure
}

// NewRoot creates an execution session on a scheduler — a *Pool, or the
// simulator — reporting to events. A nil registry gets a fresh empty one. On
// a *Pool the root reads the pool's clock, whatever clk is, so a worker's
// reading at the take of a task can stamp the task's first events; on any
// other scheduler it reads clk, and a nil clock means the system clock.
func NewRoot(s Scheduler, events *event.Registry, clk clock.Clock) *Root {
	if s == nil {
		panic("exec: NewRoot with nil scheduler")
	}
	if events == nil {
		events = event.NewRegistry()
	}
	if p, ok := s.(*Pool); ok {
		clk = p.clk
	} else if clk == nil {
		clk = clock.System
	}
	r := &Root{sched: s, events: events, clk: clk, future: NewFuture()}
	r.ctrs = &FaultCounters{}
	return r
}

// SetFaults installs the fault-tolerance policy. Call before Start; the
// config must not change once tasks are running. A non-nil cfg.Counters
// replaces the root's private counters (streams share one across inputs).
func (r *Root) SetFaults(cfg FaultConfig) {
	r.faults = cfg
	if cfg.Counters != nil {
		r.ctrs = cfg.Counters
	}
}

// jitter draws the next uniform [0,1) variate of the backoff sequence,
// which is a function of the retry policy's seed alone (0 means 1).
func (r *Root) jitter() float64 {
	r.rngMu.Lock()
	defer r.rngMu.Unlock()
	if r.rng == nil {
		seed := r.faults.Retry.Seed
		if seed == 0 {
			seed = 1
		}
		r.rng = rand.New(rand.NewSource(seed))
	}
	return r.rng.Float64()
}

// counters returns the fault counter sink (never nil).
func (r *Root) counters() *FaultCounters { return r.ctrs }

// FaultStats snapshots the root's fault counters. When the root shares a
// stream-level FaultCounters, the snapshot covers the whole stream.
func (r *Root) FaultStats() FaultStats { return r.ctrs.Stats() }

// recordBranchFailure logs one absorbed fan-out branch failure.
func (r *Root) recordBranchFailure(bf BranchFailure) {
	if bf.Substituted {
		r.ctrs.substituted.Add(1)
	} else {
		r.ctrs.skipped.Add(1)
	}
	r.failMu.Lock()
	r.branchFails = append(r.branchFails, bf)
	r.failMu.Unlock()
}

// Failures returns the branch failures absorbed by partial-failure policies
// during this execution, or nil when every branch succeeded. A non-nil
// return alongside a successful future means the result is partial.
func (r *Root) Failures() *FailureError {
	r.failMu.Lock()
	defer r.failMu.Unlock()
	if len(r.branchFails) == 0 {
		return nil
	}
	return &FailureError{Failures: append([]BranchFailure(nil), r.branchFails...)}
}

// Clock returns the root's time source.
func (r *Root) Clock() clock.Clock { return r.clk }

// Future returns the handle resolved with the final result.
func (r *Root) Future() *Future { return r.future }

// Start injects param into the skeleton program rooted at node and returns
// the future of the result. Start must be called exactly once per Root.
// The node is compiled to the shared program IR on first use (cached on the
// node); compile errors resolve the future.
func (r *Root) Start(node *skel.Node, param any) *Future {
	p, err := plan.Of(node)
	if err != nil {
		r.finish(nil, err)
		return r.future
	}
	return r.StartProgram(p, param)
}

// StartProgram is Start for a pre-compiled program: the seam through which
// every backend injects work. A remote backend ships (or references) the
// compiled IR once per program instead of re-deriving structure per task;
// internal/remote's workers enter it here.
func (r *Root) StartProgram(p *plan.Program, param any) *Future {
	r.Inject(p, param, 0)
	return r.future
}

// Inject submits one root task running p on param; the scheduler's Done
// receives its final value with slot. The pool's roots inject once, through
// StartProgram; the simulator injects every input of a stream into one root,
// so activation indices stay unique across the stream its one tracker
// observes.
func (r *Root) Inject(p *plan.Program, param any, slot int) {
	r.sched.Submit(nil, newTask(r, nil, slot, param, instrFor(p.Root(), event.NoParent)))
}

// nextIndex allocates an activation index; the Before and After events of
// one activation share it.
func (r *Root) nextIndex() int64 { return r.idx.Add(1) - 1 }

// Canceled reports whether the execution has been aborted (muscle error or
// explicit Cancel). Workers drop tasks of canceled roots between
// instructions.
func (r *Root) Canceled() bool { return r.canceled.Load() }

// Cancel aborts the execution: the future resolves with err and remaining
// tasks are discarded as workers encounter them. Running muscles are not
// interrupted.
func (r *Root) Cancel(err error) { r.fail(err) }

func (r *Root) fail(err error) {
	r.canceled.Store(true)
	r.future.resolve(nil, err)
}

func (r *Root) finish(result any, err error) {
	if err != nil {
		r.fail(err)
		return
	}
	r.future.resolve(result, nil)
}
