package server

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"skandium"
	"skandium/internal/core"
	"skandium/internal/exec"
	"skandium/internal/metrics"
)

// jobState is the lifecycle of one submitted job.
type jobState string

// Job lifecycle states.
const (
	stateQueued   jobState = "queued"   // accepted, waiting for budget
	stateRunning  jobState = "running"  // admitted, executing
	stateDone     jobState = "done"     // finished successfully
	stateFailed   jobState = "failed"   // a muscle failed
	stateCanceled jobState = "canceled" // canceled by request or shutdown
)

// errCanceled resolves executions canceled through the API.
var errCanceled = fmt.Errorf("server: job canceled by request")

// errShutdown resolves executions cut off by daemon shutdown.
var errShutdown = fmt.Errorf("server: daemon shutting down")

// job is one submitted execution: the erased runner plus its QoS, event
// log, timeline recorder and arbitration state. It implements core.Member,
// so the arbiter reads its controller's demand and imposes grants directly.
// A finished job is its outcome: its runner is dropped and its handle is a
// frozenHandle.
type job struct {
	id       string
	skeleton string
	program  string
	params   skandium.Params
	runner   skandium.Runner // nil once the job is finished
	goal     time.Duration
	maxLP    int
	initLP   int
	// policy names the adaptation rule driving this job's controller
	// ("" = the paper rule); resolved against the server default when the
	// job is built (newJob), at submit and at recovery alike.
	policy string
	// tenant (canonical, never "") and priority place the job on the
	// admission ladder and in the arbiter's weighted budget division.
	tenant   string
	priority int
	timeout  time.Duration
	retry    skandium.RetryPolicy
	partial  skandium.PartialPolicy
	log      *eventLog
	rec      *metrics.Recorder
	// lp is the LP the job's gauge last reported, its term in Server.lps.
	lp atomic.Int64
	// remoteOK marks the job routable to the cluster: eligible blueprint,
	// no local-only QoS/fault knobs (shardability is checked at start).
	remoteOK bool

	// Crash-recovery state. recovered marks a job that survived a restart:
	// re-queued from the journal (it re-runs; muscles are pure) or restored
	// from the snapshot, terminal, with a frozen handle of zero counters.
	// prior carries fault counters journaled before the crash;
	// faultRetries/faultFaults accumulate this run's, for mid-run journaling
	// (listener goroutines, hence atomics).
	recovered    bool
	prior        skandium.FaultStats
	faultRetries atomic.Uint64
	faultFaults  atomic.Uint64

	mu       sync.Mutex
	state    jobState
	grant    int
	handle   skandium.Handle
	created  time.Time
	started  time.Time
	finished time.Time
	// summary is a done job's result as the job view shows it, rendered
	// once when the job finishes (or as the journal persisted it).
	summary  string
	err      error
	canceled bool
}

// Demand implements core.Member. A job wants the LP it asked for — its
// initial_lp, within its max_lp — until its controller's first analysis
// speaks for it: while it is queued, while it runs without a WCT goal, and
// while a goal job has not been analysed yet. The arbiter's own cap is never
// read back as the wish, so a job it shrank gets its LP back once the budget
// frees. A cluster-routed job wants what the cluster runs at.
func (j *job) Demand() core.Demand {
	j.mu.Lock() // max_lp may be patched at any time
	h, want := j.handle, j.initLP
	if j.maxLP > 0 && j.maxLP < want {
		want = j.maxLP
	}
	j.mu.Unlock()
	if h == nil {
		return core.Demand{CurrentLP: want}
	}
	if r, ok := h.(*remoteHandle); ok {
		return core.Demand{CurrentLP: r.LP()}
	}
	d := h.Demand()
	if !d.Valid {
		d.CurrentLP = want
	}
	return d
}

// Grant implements core.Member: the arbiter's budget share becomes the
// stream's external LP cap.
func (j *job) Grant(n int) {
	j.mu.Lock()
	j.grant = n
	h := j.handle
	j.mu.Unlock()
	if h != nil {
		h.SetCap(n)
	}
}

// snapshot returns the mutable fields under the job lock.
func (j *job) snapshot() (state jobState, grant int, h skandium.Handle, started, finished time.Time, summary string, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.grant, j.handle, j.started, j.finished, j.summary, j.err
}

// freezeLocked makes a terminal job its outcome: h (nil for a job that
// never ran; else closed and stopped, so its readings are final) gives way
// to its frozen form, and the runner is dropped. What stays reachable from
// the job is what its views read. Caller holds j.mu.
func (j *job) freezeLocked(h skandium.Handle, res any) {
	j.handle = freeze(h, res, j.err)
	j.runner = nil
}

// totalFaults merges the fault counters journaled before a crash with this
// run's (h is nil for still-queued jobs).
func (j *job) totalFaults(h skandium.Handle) skandium.FaultStats {
	fs := j.prior
	if h != nil {
		cur := h.FaultStats()
		fs.Retries += cur.Retries
		fs.Faults += cur.Faults
		fs.Timeouts += cur.Timeouts
		fs.Skipped += cur.Skipped
		fs.Substituted += cur.Substituted
	}
	return fs
}

// terminal reports whether the state is final.
func (s jobState) terminal() bool {
	return s == stateDone || s == stateFailed || s == stateCanceled
}

// frozenHandle is the handle of a finished job: every reader returns what
// the live handle returned once it had stopped, the pool's readings are 0
// (there is no pool any more), and every lever does nothing. The job's
// views, Cancel, AdjustQoS and Close cannot tell it from the live one; the
// stream, pool, deques, listener registry, estimators, controller and
// program behind the live one become garbage.
type frozenHandle struct {
	res       any
	err       error
	decisions []skandium.Decision
	analyses  int
	demand    skandium.Demand
	stats     exec.Stats
	faults    skandium.FaultStats
	failures  *skandium.FailureError
}

// resolved is the Done channel of every frozen handle.
var resolved = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// freeze takes h's final readings; a nil h freezes to zero counters.
func freeze(h skandium.Handle, res any, err error) *frozenHandle {
	f := &frozenHandle{res: res, err: err}
	if h != nil {
		f.decisions, f.analyses, f.demand = h.Decisions(), h.Analyses(), h.Demand()
		f.stats, f.faults, f.failures = h.Stats(), h.FaultStats(), h.Failures()
	}
	return f
}

func (f *frozenHandle) Done() <-chan struct{}            { return resolved }
func (f *frozenHandle) Result() (any, error)             { return f.res, f.err }
func (f *frozenHandle) Decisions() []skandium.Decision   { return f.decisions }
func (f *frozenHandle) Analyses() int                    { return f.analyses }
func (f *frozenHandle) Demand() skandium.Demand          { return f.demand }
func (f *frozenHandle) LP() int                          { return 0 }
func (f *frozenHandle) Active() int                      { return 0 }
func (f *frozenHandle) Stats() exec.Stats                { return f.stats }
func (f *frozenHandle) FaultStats() skandium.FaultStats  { return f.faults }
func (f *frozenHandle) Failures() *skandium.FailureError { return f.failures }
func (f *frozenHandle) SetCap(int)                       {}
func (f *frozenHandle) SetGoal(time.Duration)            {}
func (f *frozenHandle) SetMaxLP(int)                     {}
func (f *frozenHandle) Cancel(error)                     {}
func (f *frozenHandle) Close()                           {}
func (f *frozenHandle) Wait()                            {}

// lpTotal is the fleet-wide LP aggregate behind skelrund_total_lp and
// skelrund_peak_total_lp: the sum of every job's last reported LP, and the
// largest that sum has been.
type lpTotal struct {
	mu        sync.Mutex
	sum, peak int64
}

func (t *lpTotal) read() (sum, peak int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sum, t.peak
}

// gauge is every job's pool gauge hook: it records the sample for the
// job's /timeline and moves the fleet aggregate by the job's LP change. A
// report that leaves the LP where it was costs the aggregate one atomic
// load. A change swaps the job's term and moves the sum under one lock:
// workers of one job report concurrently, and two changes applied out of
// order would count a job twice in the peak.
func (s *Server) gauge(j *job, now time.Time, active, lp int) {
	j.rec.Gauge(now, active, lp)
	n := int64(lp)
	if j.lp.Load() == n {
		return
	}
	s.lps.mu.Lock()
	s.lps.sum += n - j.lp.Swap(n)
	s.lps.peak = max(s.lps.peak, s.lps.sum)
	s.lps.mu.Unlock()
}
