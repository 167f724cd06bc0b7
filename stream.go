package skandium

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"skandium/internal/clock"
	"skandium/internal/core"
	"skandium/internal/estimate"
	"skandium/internal/event"
	"skandium/internal/exec"
	"skandium/internal/skel"
	"skandium/internal/statemachine"
)

// Decision is one autonomic adaptation record (see Execution.Decisions).
type Decision = core.Decision

// Demand is the controller's latest resource wish (see Execution.Demand):
// the per-job face a multi-job budget arbiter reads.
type Demand = core.Demand

// ErrClosed resolves executions injected into (or interrupted by) a closed
// Stream.
var ErrClosed = errors.New("skandium: stream closed")

// Policy is the pluggable adaptation rule the controller drives once per
// analysis (see WithPolicy).
type Policy = core.Policy

// PolicyCloner is the optional replication face of a stateful Policy: each
// Stream.Input clones the configured policy through it, so concurrent
// executions never share mutable policy state (see WithPolicy).
type PolicyCloner = core.Cloner

// NewPolicy builds a registered adaptation policy by name ("" or "paper"
// for the paper rule); an unknown name's error lists the registered ones.
// The seed drives the stochastic policies' perturbations.
func NewPolicy(name string, seed int64) (Policy, error) { return core.NewPolicy(name, seed) }

type config struct {
	lp               int
	maxLP            int
	lpCap            int
	goal             time.Duration
	analysisInterval time.Duration
	analysisTicker   time.Duration
	decreaseHold     time.Duration
	policy           core.Policy
	clk              clock.Clock
	gauge            exec.GaugeFunc
	profile          estimate.Profile
	listeners        []listenerEntry
	faultTimeout     time.Duration
	faultRetry       exec.RetryPolicy
	faultPartial     exec.PartialPolicy
}

type listenerEntry struct {
	l      event.Listener
	filter event.Filter
}

// Option configures a Stream.
type Option func(*config)

// WithLP sets the initial level of parallelism (default: number of CPUs).
func WithLP(n int) Option { return func(c *config) { c.lp = n } }

// WithMaxLP caps the level of parallelism — the paper's LP QoS. 0 means
// uncapped.
func WithMaxLP(n int) Option { return func(c *config) { c.maxLP = n } }

// WithLPCap starts the stream under an external LP cap (a budget arbiter's
// initial grant), on top of the job's own MaxLP QoS. Unlike WithMaxLP it is
// meant to move at runtime via SetCap; installing it as an option ensures
// the pool never runs a single task above the grant. 0 means no cap.
func WithLPCap(n int) Option { return func(c *config) { c.lpCap = n } }

// WithWCTGoal sets the wall-clock-time QoS per input: the autonomic
// controller adapts the pool so each execution finishes within d of its
// injection. Zero disables autonomic adaptation.
func WithWCTGoal(d time.Duration) Option { return func(c *config) { c.goal = d } }

// WithAnalysisInterval throttles controller analyses (default: analyze on
// every qualifying event).
func WithAnalysisInterval(d time.Duration) Option {
	return func(c *config) { c.analysisInterval = d }
}

// WithAnalysisTicker adds periodic re-analysis every d, in addition to
// event-triggered analyses. Events fire when knowledge changes; the ticker
// reacts when time alone invalidates the prediction — e.g. a muscle
// overrunning its estimate emits no events, but the passing clock pushes
// the projected completion out, which a periodic analysis catches
// mid-muscle.
func WithAnalysisTicker(d time.Duration) Option {
	return func(c *config) { c.analysisTicker = d }
}

// WithDecreaseHold suppresses LP decreases for d after any increase,
// damping raise/halve oscillation while estimates settle.
func WithDecreaseHold(d time.Duration) Option {
	return func(c *config) { c.decreaseHold = d }
}

// WithPolicy installs the adaptation Policy (default: the paper rule). Use
// NewPolicy to build one by registry name — the paper rule's ablations are
// "paper-minimal", "paper-nodecrease" and "paper-exact".
//
// Each Input drives its controller with an independent instance: stateful
// policies implementing PolicyCloner (the built-ins hillclimb and bandit
// do) are cloned per execution, so a stream with several in-flight inputs
// never shares mutable policy state across controllers. A custom stateful
// policy must implement PolicyCloner too — without it the same value is
// handed to every controller, which is only safe when the policy is
// stateless or the stream runs one input at a time. One instance still
// must not be installed on concurrently running streams.
func WithPolicy(p core.Policy) Option {
	return func(c *config) { c.policy = p }
}

// WithClock substitutes the time source (virtual clocks in tests).
func WithClock(clk clock.Clock) Option { return func(c *config) { c.clk = clk } }

// WithGauge installs an observer of (now, active workers, LP) transitions —
// the hook that records the paper's Figs. 5-7 series.
func WithGauge(g func(now time.Time, active, lp int)) Option {
	return func(c *config) { c.gauge = exec.GaugeFunc(g) }
}

// WithProfile seeds the muscle estimates from a previous run's snapshot —
// the paper's "goal with initialization" scenario. Profiles are keyed by
// muscle identity, so the seeding run must share the muscle handles.
func WithProfile(p estimate.Profile) Option { return func(c *config) { c.profile = p } }

// WithListener registers an event listener for all subsequent inputs. The
// optional filter narrows delivery.
func WithListener(l event.Listener, filter ...event.Filter) Option {
	return func(c *config) {
		f := event.Filter{}
		if len(filter) > 0 {
			f = filter[0]
		}
		c.listeners = append(c.listeners, listenerEntry{l: l, filter: f})
	}
}

// Stream executes a skeleton program: each Input(p) injects one parameter
// and yields an Execution handle. Inputs share the worker pool (so a Farm
// really replicates across inputs) and the muscle estimate registry (so
// history transfers between executions, the paper's "the best predictor of
// the future behaviour is past behaviour").
type Stream[P, R any] struct {
	node *skel.Node
	cfg  config
	pool *exec.Pool
	est  *estimate.Registry
	ctrs *exec.FaultCounters // fault statistics shared across inputs

	mu       sync.Mutex
	closed   bool
	inFlight []<-chan struct{}
	live     []*exec.Root // unresolved executions, canceled on Close
}

// NewStream builds an execution stream for a skeleton program.
func NewStream[P, R any](s Skeleton[P, R], opts ...Option) *Stream[P, R] {
	cfg := config{
		lp:  runtime.GOMAXPROCS(0),
		clk: clock.System,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.lp < 1 {
		cfg.lp = 1
	}
	pool := exec.NewPool(cfg.clk, cfg.lp, cfg.maxLP)
	if cfg.lpCap > 0 {
		pool.SetCap(cfg.lpCap)
	}
	if cfg.gauge != nil {
		pool.SetGauge(cfg.gauge)
	}
	est := estimate.NewRegistry(estimate.DefaultRho)
	if cfg.profile != nil {
		est.Restore(cfg.profile)
	}
	return &Stream[P, R]{node: s.n, cfg: cfg, pool: pool, est: est, ctrs: &exec.FaultCounters{}}
}

// Input injects one parameter and returns the handle to its (asynchronous)
// execution. Injecting into a closed stream does not panic: it returns an
// execution already resolved with ErrClosed, so Input racing Close (a
// daemon evicting a job mid-submission) degrades gracefully.
func (st *Stream[P, R]) Input(p P) *Execution[R] {
	// The whole injection runs under the stream lock: Close serializes
	// against it, so a stream observed open here stays open until the task
	// is on the pool (a closed pool would still only fail the future, never
	// crash — see exec.ErrPoolClosed).
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		root := exec.NewRoot(st.pool, nil, st.cfg.clk)
		root.Cancel(ErrClosed)
		return &Execution[R]{fut: root.Future(), root: root}
	}

	reg := event.NewRegistry()
	for _, le := range st.cfg.listeners {
		reg.AddFiltered(le.l, le.filter)
	}
	// The activation tree exists for the controller to predict from. Without
	// a WCT goal there is no controller, now or later (SetGoal is a no-op
	// then), so the tracker only feeds the estimators.
	var tracker *statemachine.Tracker
	var ctl *core.Controller
	if st.cfg.goal > 0 {
		tracker = statemachine.NewTracker(st.est)
		ctl = core.NewController(core.Config{
			WCTGoal:          st.cfg.goal,
			MaxLP:            st.cfg.maxLP,
			AnalysisInterval: st.cfg.analysisInterval,
			DecreaseHold:     st.cfg.decreaseHold,
			Policy:           core.ClonePolicy(st.cfg.policy),
		}, st.node, st.pool, st.est, tracker, st.cfg.clk)
		ctl.SetStart(st.cfg.clk.Now())
		core.Attach(reg, tracker, ctl)
	} else {
		tracker = statemachine.NewEstimator(st.est)
		reg.Add(tracker.Listener())
	}
	root := exec.NewRoot(st.pool, reg, st.cfg.clk)
	root.SetFaults(exec.FaultConfig{
		Timeout:  st.cfg.faultTimeout,
		Retry:    st.cfg.faultRetry,
		Partial:  st.cfg.faultPartial,
		Counters: st.ctrs,
	})
	fut := root.Start(st.node, p)
	ex := &Execution[R]{fut: fut, ctl: ctl, root: root}
	if ctl != nil {
		// Once the future resolves nothing is predicted any more: stop the
		// ticker and let go of the ADG and the activation tree, which the
		// execution handle (a daemon keeps those of finished jobs) would
		// otherwise pin.
		stop := ctl.StartTicker(st.cfg.analysisTicker)
		ex.released.Add(1)
		go func() {
			defer ex.released.Done()
			<-fut.Done()
			stop()
			ctl.Release()
		}()
	}
	st.inFlight = append(st.inFlight, fut.Done())
	// Track unresolved roots so Close can fail their futures (otherwise a
	// concurrent Drain would wait forever on tasks a closed pool dropped);
	// prune the resolved ones while we are here.
	kept := st.live[:0]
	for _, r := range st.live {
		if _, _, ok := r.Future().TryGet(); !ok {
			kept = append(kept, r)
		}
	}
	st.live = append(kept, root)
	return ex
}

// Drain blocks until every execution injected so far has resolved, or ctx
// ends. It does not close the stream; new inputs remain possible (and are
// not waited for).
func (st *Stream[P, R]) Drain(ctx context.Context) error {
	st.mu.Lock()
	waiting := append([]<-chan struct{}(nil), st.inFlight...)
	st.inFlight = st.inFlight[:0]
	st.mu.Unlock()
	for _, done := range waiting {
		select {
		case <-done:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// Do is a convenience for one-shot synchronous execution.
func (st *Stream[P, R]) Do(p P) (R, error) { return st.Input(p).Get() }

// LP returns the pool's current level of parallelism.
func (st *Stream[P, R]) LP() int { return st.pool.LP() }

// SetLP manually adjusts the level of parallelism (the autonomic controller
// may override it on its next analysis when a WCT goal is configured).
func (st *Stream[P, R]) SetLP(n int) { st.pool.SetLP(n) }

// Active returns the number of workers currently executing a task.
func (st *Stream[P, R]) Active() int { return st.pool.Active() }

// SetCap imposes (n > 0) or lifts (n <= 0) an external LP cap on the pool —
// the lever a multi-job budget arbiter pulls. The controller keeps
// computing its desired LP; the cap only bounds what the pool honours, and
// widening it immediately restores the controller's last request.
func (st *Stream[P, R]) SetCap(n int) { st.pool.SetCap(n) }

// Cap returns the external LP cap (0 = none).
func (st *Stream[P, R]) Cap() int { return st.pool.Cap() }

// SetMaxLP adjusts the pool's hard LP cap at runtime (0 = uncapped) — the
// paper's LP QoS as a live knob. Controllers of executions injected later
// inherit it; pair with Execution.SetMaxLP to also re-bound a running
// controller's requests.
func (st *Stream[P, R]) SetMaxLP(n int) {
	st.mu.Lock()
	st.cfg.maxLP = n
	st.mu.Unlock()
	st.pool.SetMaxLP(n)
}

// Stats returns the pool's execution counters (tasks run, cumulative busy
// time, workers spawned).
func (st *Stream[P, R]) Stats() exec.Stats { return st.pool.Stats() }

// FaultStats snapshots the stream's fault-tolerance counters, aggregated
// across every input injected so far.
func (st *Stream[P, R]) FaultStats() FaultStats { return st.ctrs.Stats() }

// Profile snapshots the current muscle estimates, suitable for WithProfile
// of a later stream over the same muscle handles.
func (st *Stream[P, R]) Profile() estimate.Profile { return st.est.Snapshot() }

// Estimates exposes the estimate registry (for inspection and seeding
// individual muscles).
func (st *Stream[P, R]) Estimates() *estimate.Registry { return st.est }

// Close shuts down the stream: unresolved executions resolve with ErrClosed
// (running muscles are not interrupted, but no further ones start) and the
// pool's workers exit after their current task. Close is idempotent and safe
// to call concurrently with Input and Drain — racing Inputs yield failed
// executions and a concurrent Drain observes every future resolve.
func (st *Stream[P, R]) Close() {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return
	}
	st.closed = true
	live := st.live
	st.live = nil
	st.mu.Unlock()

	for _, r := range live {
		r.Cancel(ErrClosed)
	}
	st.pool.Close()
}

// Execution is the handle to one injected parameter's asynchronous
// execution.
type Execution[R any] struct {
	fut  *exec.Future
	ctl  *core.Controller
	root *exec.Root
	// released is done once the resolved execution's controller has let go:
	// no analysis, hence no decision, follows it.
	released sync.WaitGroup
}

// Get blocks until the execution finishes and returns the typed result.
func (e *Execution[R]) Get() (R, error) {
	res, err := e.fut.Get()
	return castResult[R](res, err)
}

// GetContext is Get with cancellation of the wait (the execution keeps
// running; use Cancel to abort it).
func (e *Execution[R]) GetContext(ctx context.Context) (R, error) {
	res, err := e.fut.GetContext(ctx)
	return castResult[R](res, err)
}

// Done returns a channel closed when the execution resolves.
func (e *Execution[R]) Done() <-chan struct{} { return e.fut.Done() }

// Cancel aborts the execution; its Get returns err. Running muscles are
// not interrupted, but no further ones start.
func (e *Execution[R]) Cancel(err error) { e.root.Cancel(err) }

// Decisions returns the autonomic adaptation log of this execution (nil
// without a WCT goal).
func (e *Execution[R]) Decisions() []Decision {
	if e.ctl == nil {
		return nil
	}
	return e.ctl.Decisions()
}

// Analyses returns how many controller analyses ran for this execution.
func (e *Execution[R]) Analyses() int {
	if e.ctl == nil {
		return 0
	}
	return e.ctl.Analyses()
}

// Demand returns the controller's latest resource wish — the face a
// multi-job budget arbiter reads. Without a WCT goal it is the zero Demand.
func (e *Execution[R]) Demand() Demand {
	if e.ctl == nil {
		return Demand{}
	}
	return e.ctl.Demand()
}

// SetGoal adjusts this execution's WCT goal at runtime (still measured from
// the original start). A no-op without an autonomic controller, i.e. when
// the stream had no WCT goal at Input time.
func (e *Execution[R]) SetGoal(d time.Duration) {
	if e.ctl != nil {
		e.ctl.SetGoal(d)
	}
}

// Failures returns the fan-out branch failures absorbed by the
// partial-failure policy during this execution, or nil when every branch
// succeeded. A non-nil return alongside a nil Get error means the result is
// partial: branches were skipped or substituted per WithPartialFailure.
func (e *Execution[R]) Failures() *FailureError { return e.root.Failures() }

// SetMaxLP adjusts this execution's LP QoS cap at runtime (0 = uncapped).
// It bounds future controller requests; combine with Stream.SetMaxLP to
// also clamp the pool immediately.
func (e *Execution[R]) SetMaxLP(n int) {
	if e.ctl != nil {
		e.ctl.SetMaxLP(n)
	}
}

func castResult[R any](res any, err error) (R, error) {
	var zero R
	if err != nil {
		return zero, err
	}
	r, ok := res.(R)
	if !ok && res != nil {
		return zero, fmt.Errorf("skandium: execution produced %T, want %T", res, zero)
	}
	return r, nil
}
