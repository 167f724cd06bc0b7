package exec

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"skandium/internal/clock"
)

// ErrPoolClosed resolves the futures of roots whose tasks reach a closed
// pool: the execution cannot make progress anymore, so waiters must not
// hang.
var ErrPoolClosed = errors.New("exec: pool closed")

// GaugeFunc observes pool state transitions: now is the clock reading,
// active the number of workers currently executing a task, lp the current
// level-of-parallelism target. It is invoked outside all pool locks, from
// whichever goroutine caused the transition, so a slow gauge delays only its
// own worker; it may be called concurrently and must be safe for that. It
// must not call back into the pool's setters. The metrics recorder uses it
// to build the "number of active threads vs wall-clock time" series of the
// paper's Figs. 5-7.
type GaugeFunc func(now time.Time, active, lp int)

// Pool is a task pool with a dynamically resizable level of parallelism
// (LP). It is the autonomic lever of the paper: raising LP admits more
// workers to execute tasks concurrently; lowering it parks surplus workers
// after their current task (running muscles are never interrupted, matching
// Skandium's behaviour).
//
// The hot path is contention-free: every worker owns a Chase-Lev deque for
// the tasks it forks (LIFO, depth-first locality) and steals from its peers
// when its own deque drains; external submissions (one per stream input)
// land in a shared FIFO overflow queue so early inputs are not starved by
// later ones. All counters the controller reads — LP(), Active(),
// QueueLen(), Want(), Cap() — are atomics and never take a lock. The mutex
// only serializes the cold paths: parking idle workers, spawning, and the
// LP/cap setters.
type Pool struct {
	clk clock.Clock

	// Hot-path state, all atomic. lp is the effective (clamped) target;
	// want/maxLP/extCap are the inputs it is recomputed from under mu.
	lp       atomic.Int32
	want     atomic.Int32
	maxLP    atomic.Int32
	extCap   atomic.Int32
	active   atomic.Int32
	queued   atomic.Int64 // tasks submitted and not yet taken by a worker
	closed   atomic.Bool
	tasksRun atomic.Uint64
	busyNS   atomic.Int64

	gauge  atomic.Pointer[GaugeFunc]
	deques atomic.Pointer[[]*deque] // copy-on-write snapshot for stealing

	// overflow is the shared FIFO of externally submitted (root-level)
	// tasks; head indexes the next task to pop.
	overflowMu sync.Mutex
	overflow   []*Task
	overflowHd int

	// mu guards parking, spawning, and the LP recomputation.
	mu       sync.Mutex
	cond     *sync.Cond
	spawned  int
	sleepers atomic.Int32
	workers  sync.WaitGroup // one per spawned worker, done when it exits
}

// Stats is a snapshot of pool counters.
type Stats struct {
	// TasksRun counts task executions (a task that parks and resumes
	// counts once per execution slice).
	TasksRun uint64
	// BusyTime is the cumulative wall time workers spent executing tasks.
	BusyTime time.Duration
	// Spawned is the number of worker goroutines ever created.
	Spawned int
}

// NewPool creates a pool with the given initial LP and hard cap. maxLP <= 0
// means no cap. The clock stamps the gauge samples and times the tasks
// (Stats.BusyTime); every root on the pool reads it too, and reuses a
// worker's reading at the start of each task.
func NewPool(clk clock.Clock, initialLP, maxLP int) *Pool {
	if clk == nil {
		clk = clock.System
	}
	if initialLP < 1 {
		initialLP = 1
	}
	p := &Pool{clk: clk}
	p.want.Store(int32(initialLP))
	p.maxLP.Store(int32(maxLP))
	p.lp.Store(p.effective())
	p.cond = sync.NewCond(&p.mu)
	empty := make([]*deque, 0)
	p.deques.Store(&empty)
	return p
}

// effective clamps the requested target by the pool's own cap and the
// external cap, with a floor of one worker.
func (p *Pool) effective() int32 {
	n := p.want.Load()
	if m := p.maxLP.Load(); m > 0 && n > m {
		n = m
	}
	if c := p.extCap.Load(); c > 0 && n > c {
		n = c
	}
	if n < 1 {
		n = 1
	}
	return n
}

// applyLocked recomputes the effective LP after want/maxLP/extCap changed
// and reports whether it moved (the caller samples the gauge after
// unlocking).
func (p *Pool) applyLocked() bool {
	eff := p.effective()
	old := p.lp.Load()
	if eff == old {
		return false
	}
	p.lp.Store(eff)
	p.ensureWorkersLocked()
	p.cond.Broadcast()
	return true
}

// SetGauge installs the state observer. Pass nil to remove it.
func (p *Pool) SetGauge(g GaugeFunc) {
	if g == nil {
		p.gauge.Store(nil)
		return
	}
	p.gauge.Store(&g)
}

// LP returns the current level-of-parallelism target. Lock-free.
func (p *Pool) LP() int { return int(p.lp.Load()) }

// MaxLP returns the hard cap (0 = unlimited). Lock-free.
func (p *Pool) MaxLP() int { return int(p.maxLP.Load()) }

// Active returns the number of workers currently executing a task.
// Lock-free.
func (p *Pool) Active() int { return int(p.active.Load()) }

// QueueLen returns the number of tasks waiting for a worker (across the
// overflow queue and all worker deques). Lock-free.
func (p *Pool) QueueLen() int { return int(p.queued.Load()) }

// Want returns the last requested LP target before clamping — what the
// controller asked for, as opposed to what the caps allow. Lock-free.
func (p *Pool) Want() int { return int(p.want.Load()) }

// Cap returns the external LP cap (0 = none). Lock-free.
func (p *Pool) Cap() int { return int(p.extCap.Load()) }

// SetLP changes the level-of-parallelism target, clamped to [1, maxLP] and
// any external cap. Raising it spawns or wakes workers immediately; lowering
// it takes effect as running workers finish their current task. The
// unclamped target is remembered, so lifting a cap later restores it.
func (p *Pool) SetLP(n int) {
	if n < 1 {
		n = 1
	}
	p.mu.Lock()
	if p.closed.Load() {
		p.mu.Unlock()
		return
	}
	p.want.Store(int32(n))
	changed := p.applyLocked()
	p.mu.Unlock()
	if changed {
		p.sample()
	}
}

// SetCap imposes (or, with n <= 0, lifts) an external LP cap on top of the
// pool's own maxLP — the lever a machine-wide budget arbiter pulls. The last
// SetLP target is re-clamped immediately, in both directions.
func (p *Pool) SetCap(n int) {
	if n < 0 {
		n = 0
	}
	p.mu.Lock()
	if p.closed.Load() {
		p.mu.Unlock()
		return
	}
	p.extCap.Store(int32(n))
	changed := p.applyLocked()
	p.mu.Unlock()
	if changed {
		p.sample()
	}
}

// SetMaxLP adjusts the pool's own hard cap at runtime (0 = unlimited); the
// current target is re-clamped immediately.
func (p *Pool) SetMaxLP(n int) {
	if n < 0 {
		n = 0
	}
	p.mu.Lock()
	if p.closed.Load() {
		p.mu.Unlock()
		return
	}
	p.maxLP.Store(int32(n))
	changed := p.applyLocked()
	p.mu.Unlock()
	if changed {
		p.sample()
	}
}

// Submit implements Scheduler. A task forked or resumed on worker w goes to
// w's own deque (LIFO, locality); a root task (w nil) goes through the
// shared FIFO overflow queue, so concurrent stream inputs are served in
// arrival order. Submitting to a closed pool fails the task's root
// (resolving its future with ErrPoolClosed) instead of panicking, so a
// stream racing Close against Input degrades to an errored execution rather
// than a crash.
func (p *Pool) Submit(w *Worker, t *Task) {
	if p.closed.Load() {
		t.root.fail(ErrPoolClosed)
		return
	}
	if w != nil {
		w.dq.push(t)
		p.queued.Add(1)
	} else {
		p.overflowMu.Lock()
		p.overflow = append(p.overflow, t)
		p.overflowMu.Unlock()
		p.queued.Add(1)
		p.maybeSpawn()
	}
	p.wakeOne()
}

// Done implements Scheduler: a pool root runs one task, whose value
// resolves the root's future.
func (p *Pool) Done(r *Root, _ int, result any) { r.finish(result, nil) }

// popOverflow takes the oldest externally submitted task, if any.
func (p *Pool) popOverflow() *Task {
	if p.queued.Load() == 0 {
		return nil
	}
	p.overflowMu.Lock()
	defer p.overflowMu.Unlock()
	if p.overflowHd >= len(p.overflow) {
		return nil
	}
	t := p.overflow[p.overflowHd]
	p.overflow[p.overflowHd] = nil
	p.overflowHd++
	if p.overflowHd == len(p.overflow) {
		p.overflow = p.overflow[:0]
		p.overflowHd = 0
	}
	return t
}

// Close shuts the pool down. Queued tasks are dropped; workers exit after
// their current task. Close is idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed.Load() {
		p.mu.Unlock()
		return
	}
	p.closed.Store(true)
	p.cond.Broadcast()
	p.mu.Unlock()
	p.overflowMu.Lock()
	p.overflow, p.overflowHd = nil, 0
	p.overflowMu.Unlock()
}

// Wait blocks, after Close, until every worker has exited: the muscles
// running at Close have finished, and with them every counter and gauge
// sample the pool will ever produce.
func (p *Pool) Wait() { p.workers.Wait() }

// maybeSpawn brings the worker count up to the current LP; fast-path
// lock-free when enough workers already exist.
func (p *Pool) maybeSpawn() {
	if ds := p.deques.Load(); int32(len(*ds)) >= p.lp.Load() {
		return
	}
	p.mu.Lock()
	p.ensureWorkersLocked()
	p.mu.Unlock()
}

// ensureWorkersLocked spawns workers up to LP. A closed pool spawns none
// (a new worker would only exit), so Wait never races a late spawn.
func (p *Pool) ensureWorkersLocked() {
	if p.closed.Load() {
		return
	}
	for p.spawned < int(p.lp.Load()) {
		w := &Worker{ID: p.spawned, dq: newDeque()}
		p.spawned++
		p.workers.Add(1)
		cur := *p.deques.Load()
		next := make([]*deque, len(cur)+1)
		copy(next, cur)
		next[len(cur)] = w.dq
		p.deques.Store(&next)
		go p.workerLoop(w)
	}
}

// sample invokes the gauge, outside all pool locks.
func (p *Pool) sample() {
	if p.gauge.Load() != nil {
		p.sampleAt(p.clk.Now())
	}
}

// sampleAt invokes the gauge with a reading the caller already took.
func (p *Pool) sampleAt(now time.Time) {
	if g := p.gauge.Load(); g != nil {
		(*g)(now, int(p.active.Load()), int(p.lp.Load()))
	}
}

// acquire claims an execution slot under the LP gate.
func (p *Pool) acquire() bool {
	for {
		a := p.active.Load()
		if a >= p.lp.Load() {
			return false
		}
		if p.active.CompareAndSwap(a, a+1) {
			return true
		}
	}
}

// runnable reports whether a parked worker has any chance to make progress.
func (p *Pool) runnable() bool {
	return p.queued.Load() > 0 && p.active.Load() < p.lp.Load()
}

// park blocks until there is work to try for or the pool closes. The
// sleepers counter is incremented before re-checking runnable, and
// submitters increment queued before reading sleepers; with Go's
// sequentially consistent atomics at least one side always sees the other,
// so no wakeup is lost.
func (p *Pool) park() {
	p.mu.Lock()
	p.sleepers.Add(1)
	for !p.closed.Load() && !p.runnable() {
		p.cond.Wait()
	}
	p.sleepers.Add(-1)
	p.mu.Unlock()
}

// wakeOne signals one parked worker, if any.
func (p *Pool) wakeOne() {
	if p.sleepers.Load() == 0 {
		return
	}
	p.mu.Lock()
	p.cond.Signal()
	p.mu.Unlock()
}

// take returns the next task for w: its own deque first (LIFO children),
// then the shared FIFO overflow (root tasks in arrival order), then a steal
// sweep over the other workers' deques.
func (p *Pool) take(w *Worker) *Task {
	if t := w.dq.pop(); t != nil {
		p.queued.Add(-1)
		return t
	}
	if t := p.popOverflow(); t != nil {
		p.queued.Add(-1)
		return t
	}
	dqs := *p.deques.Load()
	n := len(dqs)
	for attempt := 0; attempt < 2; attempt++ {
		for i := 1; i <= n; i++ {
			d := dqs[(w.ID+i)%n]
			if d == w.dq {
				continue
			}
			if t := d.steal(); t != nil {
				p.queued.Add(-1)
				return t
			}
		}
		if t := p.popOverflow(); t != nil {
			p.queued.Add(-1)
			return t
		}
		if p.queued.Load() == 0 {
			return nil
		}
	}
	return nil
}

func (p *Pool) workerLoop(w *Worker) {
	defer p.workers.Done()
	for {
		if p.closed.Load() {
			return
		}
		if !p.acquire() {
			p.park()
			continue
		}
		t := p.take(w)
		if t == nil {
			p.active.Add(-1)
			p.park()
			continue
		}
		// Two readings bracket the task: its busy time and both gauge
		// samples take them, and the task's first events reuse the first
		// (every root on the pool reads the pool's clock).
		take := p.clk.Now()
		p.sampleAt(take)
		w.hold(take)
		drive(w, t, nil, false)
		leave := p.clk.Now()
		p.busyNS.Add(int64(leave.Sub(take)))
		p.tasksRun.Add(1)
		p.active.Add(-1)
		p.sampleAt(leave)
		if p.queued.Load() > 0 {
			p.wakeOne()
		}
	}
}

// Stats returns a snapshot of the pool's execution counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	spawned := p.spawned
	p.mu.Unlock()
	return Stats{
		TasksRun: p.tasksRun.Load(),
		BusyTime: time.Duration(p.busyNS.Load()),
		Spawned:  spawned,
	}
}

// String describes the pool state for debugging.
func (p *Pool) String() string {
	p.mu.Lock()
	spawned := p.spawned
	p.mu.Unlock()
	return fmt.Sprintf("pool{lp=%d max=%d active=%d queued=%d spawned=%d closed=%v}",
		p.lp.Load(), p.maxLP.Load(), p.active.Load(), p.queued.Load(), spawned, p.closed.Load())
}
