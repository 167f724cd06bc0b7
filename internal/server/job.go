package server

import (
	"encoding/json"
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

// job is one submitted execution: its spec, its place in the lifecycle and
// what its views read — the execution's readings (handle) and its event log
// (log). While it can still run it also holds its live part: the runner,
// the levers, the live ring and the gauge recorder. At freeze the live part
// gives way to the outcome, which answers for the execution, the log and the
// gauge series and has no lever, so a finished job is what it ran to and
// nothing a request can move. It implements core.Member, so the arbiter
// reads its controller's demand and imposes grants directly.
type job struct {
	id       string
	skeleton string
	program  string          // interned: the jobs of one program text share it
	params   json.RawMessage // canonical JSON; nil when there are none
	goal     time.Duration
	maxLP    int
	// policy names the adaptation rule driving this job's controller
	// ("" = the paper rule); resolved against the server default when the
	// job is built (newJob), at submit and at recovery alike.
	policy string
	// tenant (canonical, never "") and priority place the job on the
	// admission ladder and in the arbiter's weighted budget division.
	tenant   string
	priority int
	timeout  time.Duration
	retries  int    // attempts per muscle; <= 1 = no retry
	partial  string // the partial-failure policy's name
	created  time.Duration

	// Crash-recovery state. recovered marks a job that survived a restart:
	// re-queued from the journal (it re-runs; muscles are pure) or restored
	// from the snapshot, terminal, with an outcome of zero counters.
	// prior carries the fault counters journaled before the crash (nil:
	// none); faultRetries/faultFaults accumulate this run's, for mid-run
	// journaling (listener goroutines, hence atomics).
	prior        *skandium.FaultStats
	faultRetries atomic.Uint64
	faultFaults  atomic.Uint64
	recovered    bool
	// remoteOK marks the job routable to the cluster: eligible blueprint,
	// no local-only QoS/fault knobs (shardability is checked at start).
	remoteOK bool

	canceled bool // guarded by mu, and beside the flags above to pack with them
	mu       sync.Mutex
	state    jobState
	grant    int
	// created, started and finished are times since the server started;
	// started and finished are 0 until the job gets there.
	started, finished time.Duration
	// summary is a done job's result as the job view shows it, rendered
	// once when the job finishes (or as the journal persisted it).
	summary string
	err     error
	// handle is what the views read of the execution: nil until the job
	// starts, then the local stream's handle or the cluster run, and the
	// outcome once the job is frozen.
	handle execution
	// log is the job's event log: the live ring, then the outcome.
	log events
	// live is nil once the job is frozen.
	live *live
}

// live is what a job holds only while it can still run.
type live struct {
	runner  skandium.Runner
	initLP  int           // the LP wished for until the first analysis
	backoff time.Duration // the retry backoff's base delay
	partial skandium.PartialPolicy
	log     *eventLog
	rec     *metrics.Recorder // the LP/active series
	// lp is the LP the job's gauge last reported, its term in Server.lps.
	lp     atomic.Int64
	stream skandium.Handle // the local stream's levers, once it started
	remote *clusterRun     // the cluster run, once routed
}

// execution is what the views read of how a job runs or ran: the local
// stream's handle, a cluster run, or the outcome.
type execution interface {
	Decisions() []skandium.Decision
	Analyses() int
	Demand() skandium.Demand
	LP() int
	Active() int
	Stats() exec.Stats
	FaultStats() skandium.FaultStats
	Failures() *skandium.FailureError
}

// events is a job's event log as its readers see it: the live ring, or the
// records the outcome kept.
type events interface {
	len() int64
	droppedCount() int64
	reader(from int64) *logReader
}

// Demand implements core.Member. A job wants the LP it asked for — its
// initial_lp, within its max_lp — until its controller's first analysis
// speaks for it: while it is queued, while it runs without a WCT goal, and
// while a goal job has not been analysed yet. The arbiter's own cap is never
// read back as the wish, so a job it shrank gets its LP back once the budget
// frees. A cluster-routed job wants what the cluster runs at.
func (j *job) Demand() core.Demand {
	j.mu.Lock() // max_lp may be patched at any time
	h, want := j.handle, 0
	if j.live != nil {
		want = j.live.initLP
	}
	if j.maxLP > 0 && j.maxLP < want {
		want = j.maxLP
	}
	j.mu.Unlock()
	if h == nil {
		return core.Demand{CurrentLP: want}
	}
	if r, ok := h.(*clusterRun); ok {
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
	st := j.streamLocked()
	j.mu.Unlock()
	if st != nil {
		st.SetCap(n)
	}
}

// streamLocked returns the levers of the job's local stream, nil unless it
// runs one. Caller holds j.mu.
func (j *job) streamLocked() skandium.Handle {
	if j.live == nil {
		return nil
	}
	return j.live.stream
}

// snapshot returns the mutable fields under the job lock.
func (j *job) snapshot() (state jobState, grant int, h execution, started, finished time.Duration, summary string, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.grant, j.handle, j.started, j.finished, j.summary, j.err
}

// events returns the job's event log under the job lock.
func (j *job) events() events {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log
}

// freezeLocked makes a terminal job its outcome: the readings of its
// execution (none for a job that never ran; else stopped, so they are
// final), the records its log keeps and its gauge series take the place of
// the live part. What stays reachable from the job is what its views read.
// start is the server's start. Caller holds j.mu.
func (j *job) freezeLocked(start time.Time) {
	o := &outcome{events: j.live.log.freeze()}
	if j.handle != nil {
		o.readings = readingsOf(j.handle)
	}
	var base time.Time
	if base, o.gauges = j.live.rec.Trim(); len(o.gauges) > 0 {
		o.gaugeBase = base.Sub(start)
	}
	j.handle, j.log, j.live = o, o, nil
}

// samples returns the job's gauge series; start is the server's start.
func (j *job) samples(start time.Time) []metrics.Sample {
	j.mu.Lock()
	l, log := j.live, j.log
	j.mu.Unlock()
	if l != nil {
		return l.rec.Samples()
	}
	o := log.(*outcome) // a frozen job's log is its outcome
	return metrics.Unpack(start.Add(o.gaugeBase), o.gauges)
}

// totalFaults merges the fault counters journaled before a crash with this
// run's (h is nil for still-queued jobs).
func (j *job) totalFaults(h execution) skandium.FaultStats {
	var fs skandium.FaultStats
	if j.prior != nil {
		fs = *j.prior
	}
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

// readings are an execution's counters as the views read them once it has
// stopped: a finished job has no pool, so its LP and active count are 0.
// What only a goal job, a faulting or a failing one has is in more, nil
// for every other job.
type readings struct {
	stats exec.Stats
	more  *moreReadings
}

// moreReadings are the readings most jobs have none of.
type moreReadings struct {
	decisions []skandium.Decision
	analyses  int
	demand    skandium.Demand
	faults    skandium.FaultStats
	failures  *skandium.FailureError
}

// none is the moreReadings of a job that has none.
var none moreReadings

// readingsOf takes h's readings.
func readingsOf(h execution) readings {
	m := moreReadings{decisions: h.Decisions(), analyses: h.Analyses(), demand: h.Demand(),
		faults: h.FaultStats(), failures: h.Failures()}
	r := readings{stats: h.Stats()}
	if len(m.decisions) > 0 || m.analyses > 0 || m.demand.Valid ||
		m.faults != (skandium.FaultStats{}) || m.failures != nil {
		r.more = &m
	}
	return r
}

// m returns the readings' more, none for a job that has none.
func (r *readings) m() *moreReadings {
	if r.more == nil {
		return &none
	}
	return r.more
}

func (r *readings) Decisions() []skandium.Decision   { return r.m().decisions }
func (r *readings) Analyses() int                    { return r.m().analyses }
func (r *readings) LP() int                          { return 0 }
func (r *readings) Active() int                      { return 0 }
func (r *readings) Stats() exec.Stats                { return r.stats }
func (r *readings) FaultStats() skandium.FaultStats  { return r.m().faults }
func (r *readings) Failures() *skandium.FailureError { return r.m().failures }
func (r *readings) Demand() skandium.Demand          { return r.m().demand }

// outcome is a finished job: the readings of its execution, the records
// its event log kept and its gauge series, packed. It answers the views and
// nothing else.
type outcome struct {
	readings
	events    packedEvents
	gauges    []byte        // as metrics.Unpack decodes them
	gaugeBase time.Duration // the first sample's time, since the server started
}

func (o *outcome) len() int64          { return o.events.n }
func (o *outcome) droppedCount() int64 { return o.events.first }

// reader reads the kept records through a closed log of its own, whose
// ring holds exactly them.
func (o *outcome) reader(from int64) *logReader {
	l := &eventLog{packedEvents: o.events, cap: max(1, o.events.n-o.events.first), closed: true}
	return l.reader(from)
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

// gauge is every job's pool gauge hook, l its live part: it records the
// sample for the job's /timeline and moves the fleet aggregate by the job's
// LP change. A report that leaves the LP where it was costs the aggregate
// one atomic load. A change swaps the job's term and moves the sum under
// one lock: workers of one job report concurrently, and two changes applied
// out of order would count a job twice in the peak.
func (s *Server) gauge(l *live, now time.Time, active, lp int) {
	l.rec.Gauge(now, active, lp)
	n := int64(lp)
	if l.lp.Load() == n {
		return
	}
	s.lps.mu.Lock()
	s.lps.sum += n - l.lp.Swap(n)
	s.lps.peak = max(s.lps.peak, s.lps.sum)
	s.lps.mu.Unlock()
}
