package server

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"skandium"
	"skandium/internal/core"
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
type job struct {
	id       string
	skeleton string
	program  string
	params   skandium.Params
	runner   skandium.Runner
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

	// Crash-recovery state. recovered marks a job re-queued from the
	// journal (it re-runs; muscles are pure). restored marks a terminal job
	// rehydrated from the snapshot: it has no runner or handle, only its
	// persisted outcome. prior carries fault counters journaled before the
	// crash; faultRetries/faultFaults accumulate this run's, for mid-run
	// journaling (listener goroutines, hence atomics).
	recovered     bool
	restored      bool
	resultSummary string
	prior         skandium.FaultStats
	faultRetries  atomic.Uint64
	faultFaults   atomic.Uint64

	mu       sync.Mutex
	state    jobState
	grant    int
	handle   skandium.Handle
	created  time.Time
	started  time.Time
	finished time.Time
	result   any
	err      error
	canceled bool
}

// Demand implements core.Member: the controller's wish once running, a
// minimal placeholder while queued (so a just-admitted job starts at one
// worker until its first analysis).
func (j *job) Demand() core.Demand {
	j.mu.Lock()
	h := j.handle
	j.mu.Unlock()
	if h == nil {
		return core.Demand{}
	}
	d := h.Demand()
	if d.CurrentLP == 0 {
		// No autonomic controller (no WCT goal): hold what the pool uses.
		d.CurrentLP = h.LP()
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
func (j *job) snapshot() (state jobState, grant int, h skandium.Handle, started, finished time.Time, result any, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.grant, j.handle, j.started, j.finished, j.result, j.err
}

// totalFaults merges the fault counters journaled before a crash with this
// run's (h is nil for restored or still-queued jobs).
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
