// Package sim is a deterministic discrete-event simulator substrate for
// skeleton programs. It is the second driver of internal/exec's
// interpreter: the same instructions run the same compiled program and
// raise the same events, but time is virtual — every muscle Call the
// interpreter yields costs a declared duration, and the engine advances a
// virtual clock from completion to completion.
//
// The simulator exists because the paper's evaluation ran on a 12-core/24-
// thread Xeon; reproducing the figures requires parallel wall-clock
// behaviour that a small CI box cannot exhibit. Since the object of study
// is the autonomic controller (estimators, ADG, LP decisions) — which only
// observes events and timestamps — running the identical controller against
// the simulator preserves exactly the behaviour under test, deterministically.
// What the engine adds is only what the pool does differently: who runs the
// next task (a LIFO queue, virtual workers, node pinning, partitions and
// arrivals) and how long a muscle takes (the CostModel).
package sim

import (
	"fmt"
	"time"

	"skandium/internal/clock"
	"skandium/internal/event"
	"skandium/internal/exec"
	"skandium/internal/muscle"
	"skandium/internal/plan"
	"skandium/internal/skel"
)

// CostModel declares the virtual duration of one muscle invocation on a
// given parameter. Called when the interpreter yields the invocation's Call
// (its Before event raised, the muscle not yet run); implementations may be
// stateful (e.g. seeded jitter) but must not depend on wall time.
type CostModel interface {
	Cost(m *muscle.Muscle, param any) time.Duration
}

// CostFunc adapts a function to CostModel.
type CostFunc func(m *muscle.Muscle, param any) time.Duration

// Cost implements CostModel.
func (f CostFunc) Cost(m *muscle.Muscle, param any) time.Duration { return f(m, param) }

// Config configures an Engine.
type Config struct {
	// Events receives the execution's events (nil = fresh registry).
	Events *event.Registry
	// Costs declares muscle durations. Required.
	Costs CostModel
	// LP is the initial level of parallelism (default 1). MaxLP caps
	// SetLP; 0 = uncapped. MaxLP models the hardware thread count of the
	// simulated machine (24 in the paper). In multi-node mode (Nodes set)
	// both count provisioned nodes instead of threads.
	LP    int
	MaxLP int
	// Nodes switches the engine into multi-node mode: the machine park of
	// a simulated cluster. Node i contributes Threads virtual workers, and
	// every muscle scheduled on it pays an extra 2×Link of virtual time
	// (the parameter shipped there and the result shipped back — the round
	// trip internal/remote pays per shard on a real cluster). With Nodes
	// set, the LP lever provisions nodes: SetLP(n) enables the first n
	// nodes, so the unchanged WCT controller scales a simulated cluster in
	// virtual time exactly like it scales a thread pool.
	Nodes []NodeSpec
	// Partitions imposes network partitions on the simulated cluster
	// (multi-node mode only): during [From, Until) after the run starts the
	// named node is unreachable — no new work is pinned to it, its threads
	// leave the admission capacity, and muscles already running there hold
	// their results until the window heals (the reply is stranded behind
	// the partition, then pays one more Link to ship home). Deterministic:
	// the same windows replay the same virtual timeline.
	Partitions []Partition
	// Gauge, when set, observes (virtual now, active, lp) on transitions.
	Gauge func(now time.Time, active, lp int)
	// Start anchors virtual time (default clock.Epoch).
	Start time.Time
}

// Engine runs one simulated execution at a time. It implements the
// controller's LPControl lever and exec.Scheduler.
type Engine struct {
	clk    *clock.Virtual
	events *event.Registry
	costs  CostModel
	gauge  func(time.Time, int, int)

	lp    int
	maxLP int

	// Multi-node mode (nil outside it): lp counts provisioned nodes, a
	// task's slot is pinned to a node for its whole execution slice, and
	// nodeBusy tracks per-node occupancy for admission.
	nodes    []NodeSpec
	nodeBusy []int
	slotNode []int // slot -> node, valid while the slot is taken
	parts    []Partition
	partBase time.Time // run start the partition windows are relative to

	queue   []*exec.Task
	running runHeap
	seq     uint64

	freeSlots []int
	nextSlot  int
	// w is the virtual worker handed to exec.Step: the engine is
	// single-threaded, so one value re-labelled with the slot serves all.
	w exec.Worker

	// root injects every input of the engine's runs: one activation-index
	// counter across all of them, for the one tracker that observes a
	// stream. A failed run cancels it; the next run starts a fresh one.
	root  *exec.Root
	start time.Time

	arrivals  []arrival
	nextArr   int
	results   []StreamResult
	completed int
}

// NodeSpec describes one node of a simulated cluster: its virtual worker
// count and its one-way link latency to the coordinator.
type NodeSpec struct {
	// Threads is the node's virtual worker count (minimum 1).
	Threads int
	// Link is the one-way shipping latency; every muscle run on the node
	// pays 2×Link of virtual time on top of its declared cost.
	Link time.Duration
}

// Partition is one virtual-time partition window of a simulated node.
type Partition struct {
	// Node is the index into Config.Nodes.
	Node int
	// From/Until bound the window relative to the run start (half-open:
	// the node heals at Until exactly).
	From, Until time.Duration
}

// arrival is a pending stream injection.
type arrival struct {
	at    time.Time
	param any
	idx   int
}

// StreamResult is the outcome of one injected parameter of a stream run.
type StreamResult struct {
	Param  any
	Result any
	// Start is the virtual arrival instant, End the completion instant.
	Start time.Time
	End   time.Time
}

// Latency returns the virtual sojourn time of the job.
func (r StreamResult) Latency() time.Duration { return r.End.Sub(r.Start) }

// NewEngine builds a simulator.
func NewEngine(cfg Config) *Engine {
	if cfg.Costs == nil {
		panic("sim: Config.Costs is required")
	}
	if cfg.Events == nil {
		cfg.Events = event.NewRegistry()
	}
	if cfg.LP < 1 {
		cfg.LP = 1
	}
	if cfg.MaxLP > 0 && cfg.LP > cfg.MaxLP {
		cfg.LP = cfg.MaxLP
	}
	if cfg.Start.IsZero() {
		cfg.Start = clock.Epoch
	}
	e := &Engine{
		clk:    clock.NewVirtual(cfg.Start),
		events: cfg.Events,
		costs:  cfg.Costs,
		gauge:  cfg.Gauge,
		lp:     cfg.LP,
		maxLP:  cfg.MaxLP,
		start:  cfg.Start,
	}
	if len(cfg.Nodes) > 0 {
		e.nodes = make([]NodeSpec, len(cfg.Nodes))
		for i, n := range cfg.Nodes {
			if n.Threads < 1 {
				n.Threads = 1
			}
			if n.Link < 0 {
				n.Link = 0
			}
			e.nodes[i] = n
		}
		e.nodeBusy = make([]int, len(e.nodes))
		if e.lp > len(e.nodes) {
			e.lp = len(e.nodes)
		}
		for _, p := range cfg.Partitions {
			if p.Node < 0 || p.Node >= len(e.nodes) || p.Until <= p.From {
				continue
			}
			e.parts = append(e.parts, p)
		}
	}
	return e
}

// partitionedAt reports whether node is cut off at instant at, and if so
// when it heals — chaining overlapping or abutting windows, so a reply
// stranded behind back-to-back partitions waits them all out.
func (e *Engine) partitionedAt(node int, at time.Time) (bool, time.Time) {
	rel := at.Sub(e.partBase)
	cut := false
	heal := rel
	for changed := true; changed; {
		changed = false
		for _, p := range e.parts {
			if p.Node == node && p.From <= heal && heal < p.Until {
				cut = true
				heal = p.Until
				changed = true
			}
		}
	}
	if !cut {
		return false, time.Time{}
	}
	return true, e.partBase.Add(heal)
}

// nextHeal returns the earliest future partition end — the instant the
// admission capacity can grow again.
func (e *Engine) nextHeal(now time.Time) (time.Time, bool) {
	rel := now.Sub(e.partBase)
	var best time.Duration
	found := false
	for _, p := range e.parts {
		if p.Until > rel && (!found || p.Until < best) {
			best = p.Until
			found = true
		}
	}
	if !found {
		return time.Time{}, false
	}
	return e.partBase.Add(best), true
}

// Clock returns the engine's virtual clock.
func (e *Engine) Clock() clock.Clock { return e.clk }

// Now returns the current virtual time.
func (e *Engine) Now() time.Time { return e.clk.Now() }

// Start returns the virtual time origin of the run.
func (e *Engine) StartTime() time.Time { return e.start }

// LP implements core.LPControl.
func (e *Engine) LP() int { return e.lp }

// SetLP implements core.LPControl; takes effect at the next scheduling
// point (running muscles are never interrupted, like the real pool). In
// multi-node mode it provisions or decommissions nodes: lowering it stops
// admitting work to the dropped nodes, but muscles already running there
// finish — the paper's thread semantics applied to machines.
func (e *Engine) SetLP(n int) {
	if n < 1 {
		n = 1
	}
	if e.maxLP > 0 && n > e.maxLP {
		n = e.maxLP
	}
	if len(e.nodes) > 0 && n > len(e.nodes) {
		n = len(e.nodes)
	}
	if n == e.lp {
		return
	}
	e.lp = n
	e.sample()
}

// NodeOccupancy returns the per-node busy worker counts (multi-node mode;
// empty otherwise). Useful for building core.NodeReport snapshots when a
// cluster arbiter is driven from a simulated machine park.
func (e *Engine) NodeOccupancy() []int {
	out := make([]int, len(e.nodeBusy))
	copy(out, e.nodeBusy)
	return out
}

// capacity is the admission bound: threads of the provisioned, currently
// reachable nodes in multi-node mode, the LP target otherwise.
func (e *Engine) capacity() int {
	if len(e.nodes) == 0 {
		return e.lp
	}
	now := e.clk.Now()
	c := 0
	for i := 0; i < e.lp; i++ {
		if cut, _ := e.partitionedAt(i, now); cut {
			continue
		}
		c += e.nodes[i].Threads
	}
	return c
}

func (e *Engine) sample() {
	if e.gauge != nil {
		e.gauge(e.clk.Now(), e.running.len(), e.lp)
	}
}

// Run executes node on param to completion and returns the result and the
// virtual makespan. An Engine is single-use per Run call; Run may be called
// again afterwards (state resets, the clock keeps advancing monotonically
// from the previous run unless the engine is rebuilt).
func (e *Engine) Run(node *skel.Node, param any) (any, time.Duration, error) {
	start := e.clk.Now()
	rs, err := e.RunStream(node, []Injection{{Param: param}})
	if err != nil {
		return nil, 0, err
	}
	return rs[0].Result, e.clk.Now().Sub(start), nil
}

// Injection is one parameter of a stream run: Param arrives At after the
// stream starts (zero = immediately).
type Injection struct {
	At    time.Duration
	Param any
}

// RunStream simulates a stream of inputs processed by node — the farm
// use-case: injections share the engine's capacity, later jobs benefit from
// whatever LP the controller (or caller) set earlier. Results are returned
// in injection order with per-job arrival/completion times.
func (e *Engine) RunStream(node *skel.Node, injections []Injection) ([]StreamResult, error) {
	prog, err := plan.Of(node)
	if err != nil {
		return nil, err
	}
	return e.RunStreamProgram(prog, injections)
}

// RunStreamProgram is RunStream over an explicitly compiled program,
// bypassing the node's plan cache — the simulator's side of the seam
// exec.Root.StartProgram opens, which the conformance harness drives both
// engines through.
func (e *Engine) RunStreamProgram(prog *plan.Program, injections []Injection) (results []StreamResult, err error) {
	defer func() {
		// Muscle and listener panics fail the root inside exec.Step; one
		// reaching here comes from the cost model or the gauge and aborts
		// the run instead of the process.
		if rec := recover(); rec != nil {
			results = nil
			err = fmt.Errorf("sim: panic during simulated execution: %v", rec)
		}
	}()
	if len(injections) == 0 {
		return nil, nil
	}
	if e.root == nil || e.root.Canceled() {
		e.root = exec.NewRoot(e, e.events, e.clk)
	}
	e.queue = e.queue[:0]
	e.running = runHeap{}
	e.completed = 0
	runStart := e.clk.Now()
	e.partBase = runStart

	e.results = make([]StreamResult, len(injections))
	if cap(e.arrivals) < len(injections) {
		e.arrivals = make([]arrival, 0, len(injections))
	}
	e.arrivals = e.arrivals[:0]
	for i, inj := range injections {
		at := runStart.Add(inj.At)
		e.results[i] = StreamResult{Param: inj.Param, Start: at}
		e.arrivals = append(e.arrivals, arrival{at: at, param: inj.Param, idx: i})
	}
	sortArrivals(e.arrivals)
	e.nextArr = 0
	e.admitArrivals(prog)

	for e.completed < len(e.results) && !e.root.Canceled() {
		// Admit ready tasks while capacity remains.
		for e.running.len() < e.capacity() && len(e.queue) > 0 {
			t := e.queue[len(e.queue)-1]
			e.queue = e.queue[:len(e.queue)-1]
			e.step(t, e.takeSlot(), nil)
			if e.root.Canceled() {
				break
			}
		}
		if e.completed == len(e.results) || e.root.Canceled() {
			break
		}
		if e.running.len() == 0 {
			if len(e.queue) > 0 {
				// No capacity right now — but a partition heal may restore
				// some; jump the clock to the earliest one.
				if heal, ok := e.nextHeal(e.clk.Now()); ok {
					e.clk.Set(heal)
					continue
				}
				return nil, fmt.Errorf("sim: stalled with %d queued tasks and no capacity", len(e.queue))
			}
			// Idle: jump to the next arrival.
			if e.nextArr < len(e.arrivals) {
				e.clk.Set(e.arrivals[e.nextArr].at)
				e.admitArrivals(prog)
				continue
			}
			return nil, fmt.Errorf("sim: deadlock — nothing running, nothing queued, not done")
		}
		// If an arrival precedes the next completion, process it first.
		if e.nextArr < len(e.arrivals) && !e.arrivals[e.nextArr].at.After(e.running.peek().until) {
			e.clk.Set(e.arrivals[e.nextArr].at)
			e.admitArrivals(prog)
			continue
		}
		r := e.running.pop()
		if len(e.parts) > 0 {
			nd := e.slotNode[r.slot]
			if cut, heal := e.partitionedAt(nd, r.until); cut {
				// The muscle finished on a partitioned node: its reply is
				// stranded until the window heals, then pays one more Link
				// to ship home. The worker stays pinned the whole time.
				r.until = heal.Add(e.nodes[nd].Link)
				e.running.push(r)
				continue
			}
		}
		e.clk.Set(r.until)
		e.sample()
		// The muscle's time is up: the same virtual worker invokes it and
		// goes on interpreting its task.
		e.step(r.task, r.slot, r.call)
	}
	if e.root.Canceled() {
		_, err, _ := e.root.Future().TryGet()
		return nil, err
	}
	return e.results, nil
}

// admitArrivals submits every injection whose arrival time has come.
func (e *Engine) admitArrivals(prog *plan.Program) {
	now := e.clk.Now()
	for e.nextArr < len(e.arrivals) && !e.arrivals[e.nextArr].at.After(now) {
		a := e.arrivals[e.nextArr]
		e.nextArr++
		e.root.Inject(prog, a.param, a.idx)
	}
}

func sortArrivals(as []arrival) {
	// insertion sort: streams are small and usually already ordered.
	for i := 1; i < len(as); i++ {
		for j := i; j > 0 && as[j].at.Before(as[j-1].at); j-- {
			as[j], as[j-1] = as[j-1], as[j]
		}
	}
}

// Submit implements exec.Scheduler: forked children, resumed parents and
// injected inputs all join the LIFO ready queue.
func (e *Engine) Submit(_ *exec.Worker, t *exec.Task) { e.queue = append(e.queue, t) }

// Done implements exec.Scheduler: input slot of the stream completed now.
func (e *Engine) Done(_ *exec.Root, slot int, result any) {
	e.results[slot].Result = result
	e.results[slot].End = e.clk.Now()
	e.completed++
}

func (e *Engine) takeSlot() int {
	var s int
	if n := len(e.freeSlots); n > 0 {
		s = e.freeSlots[n-1]
		e.freeSlots = e.freeSlots[:n-1]
	} else {
		s = e.nextSlot
		e.nextSlot++
	}
	if len(e.nodes) > 0 {
		// Pin the slot to the first provisioned, reachable node with a free
		// thread for its whole execution slice (capacity() admission, which
		// uses the same reachability predicate, guarantees one).
		now := e.clk.Now()
		nd := 0
		for i := 0; i < e.lp; i++ {
			if cut, _ := e.partitionedAt(i, now); cut {
				continue
			}
			if e.nodeBusy[i] < e.nodes[i].Threads {
				nd = i
				break
			}
		}
		for len(e.slotNode) <= s {
			e.slotNode = append(e.slotNode, 0)
		}
		e.slotNode[s] = nd
		e.nodeBusy[nd]++
	}
	return s
}

func (e *Engine) releaseSlot(s int) {
	if len(e.nodes) > 0 {
		e.nodeBusy[e.slotNode[s]]--
	}
	e.freeSlots = append(e.freeSlots, s)
}

// step runs t on virtual worker slot through exec's interpreter (first
// invoking call, the muscle whose virtual time just elapsed, if any) until
// it yields its next muscle call, which is priced and parked on the run
// heap, or leaves the worker.
func (e *Engine) step(t *exec.Task, slot int, call *exec.Call) {
	e.w.ID = slot
	if call = exec.Step(&e.w, t, call); call != nil {
		e.park(t, slot, call)
		return
	}
	e.releaseSlot(slot)
}

// park prices c with the cost model now, at its Before instant, and holds
// t's worker for that long. In multi-node mode the slot's node adds its
// round-trip link latency: the muscle's parameter ships to the node and its
// result ships back.
func (e *Engine) park(t *exec.Task, slot int, c *exec.Call) {
	d := e.costs.Cost(c.Muscle(), c.Param())
	if d < 0 {
		d = 0
	}
	if len(e.nodes) > 0 {
		d += 2 * e.nodes[e.slotNode[slot]].Link
	}
	e.seq++
	e.running.push(run{
		until: e.clk.Now().Add(d),
		seq:   e.seq,
		task:  t,
		slot:  slot,
		call:  c,
	})
	e.sample()
}

// run is one muscle in flight: its task's worker is held until until.
type run struct {
	until time.Time
	seq   uint64
	task  *exec.Task
	slot  int
	call  *exec.Call
}

// runHeap orders running muscles by completion time, FIFO within equal
// times (deterministic).
type runHeap struct{ rs []run }

func (h *runHeap) len() int { return len(h.rs) }

func (h *runHeap) peek() run { return h.rs[0] }

func (h *runHeap) less(i, j int) bool {
	if !h.rs[i].until.Equal(h.rs[j].until) {
		return h.rs[i].until.Before(h.rs[j].until)
	}
	return h.rs[i].seq < h.rs[j].seq
}

func (h *runHeap) push(r run) {
	h.rs = append(h.rs, r)
	i := len(h.rs) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.less(p, i) {
			break
		}
		h.rs[p], h.rs[i] = h.rs[i], h.rs[p]
		i = p
	}
}

func (h *runHeap) pop() run {
	top := h.rs[0]
	last := len(h.rs) - 1
	h.rs[0] = h.rs[last]
	h.rs = h.rs[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.rs) && h.less(l, small) {
			small = l
		}
		if r < len(h.rs) && h.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		h.rs[i], h.rs[small] = h.rs[small], h.rs[i]
		i = small
	}
	return top
}
