// Package server turns the skandium library into a long-running,
// network-facing service: an HTTP/JSON API to submit jobs against named
// registered skeletons, observe their events and LP/WCT timelines, adjust
// QoS at runtime — with a machine-wide LP budget divided across the per-job
// autonomic controllers by a core.Arbiter (the fleet-level analogue of the
// paper's asymmetric adaptation policy).
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"time"

	"sync"
	"sync/atomic"

	"skandium"
	"skandium/internal/clock"
	"skandium/internal/core"
	"skandium/internal/event"
	"skandium/internal/journal"
	"skandium/internal/metrics"
	"skandium/internal/remote"
)

// retainJobs is how many finished jobs the server keeps. Once more have
// finished, the one that finished first leaves the job table and the
// journal's state table, and its id answers 410 Gone. Queued and running
// jobs are never evicted. Spark's spark.ui.retainedJobs keeps the same
// count.
const retainJobs = 1000

// Config tunes a Server.
type Config struct {
	// Budget is the machine-wide LP budget the arbiter divides across jobs
	// (default: 2 × GOMAXPROCS — sleep- and IO-bound muscles oversubscribe
	// safely; lower it for purely CPU-bound fleets).
	Budget int
	// Rebalance is the arbiter's reallocation period (default 25ms).
	Rebalance time.Duration
	// AnalysisTick is each job's periodic controller re-analysis (default
	// 5ms; see Stream.WithAnalysisTicker).
	AnalysisTick time.Duration
	// AnalysisInterval throttles event-driven analyses (default 2ms).
	AnalysisInterval time.Duration
	// DefaultPolicy names the adaptation policy for jobs that do not pick
	// one ("" = the paper rule). Unknown names are rejected by skelrund at
	// startup.
	DefaultPolicy string
	// EventLog bounds the per-job event ring (default 8192 records).
	EventLog int
	// retain overrides retainJobs (tests).
	retain int
	// Clock substitutes the time source (tests).
	Clock clock.Clock

	// Journal is the write-ahead job journal; nil runs the daemon
	// memory-only (the historical behaviour). Every job state transition is
	// journaled before it is acted on.
	Journal *journal.Journal
	// Recover is the replayed job-state table from journal.Open: terminal
	// jobs are rehydrated to serve their persisted outcome, queued/running
	// jobs are re-queued for execution.
	Recover []journal.JobState
	// QueueMax bounds the number of jobs waiting for budget; submissions
	// beyond it are shed with an OverloadError (HTTP 429 + Retry-After).
	// 0 keeps the queue unbounded. With tenants configured the bound is
	// soft: guaranteed traffic (a tenant below its weighted quota) still
	// admits, stretching the queue by at most the quota sum.
	QueueMax int
	// Tenants maps tenant names to their weights in both the LP budget
	// division and the queue-quota math (unlisted tenants weigh 1).
	Tenants map[string]int

	// Cluster, when set, routes eligible jobs (cluster-eligible blueprint,
	// shardable program, no WCT goal or fault envelope) to remote workers
	// instead of the local pool. Ineligible jobs run locally, unchanged.
	Cluster *remote.Cluster
}

// Server owns the job table, the arbiter and the admission ladder — the
// only records of jobs, sheds and faults. Build one with New, expose
// Handler over HTTP, stop with Drain/Close.
type Server struct {
	cfg       Config
	arb       *core.Arbiter
	clk       clock.Clock
	stopArb   func()
	startTime time.Time
	jn        *journal.Journal   // nil = memory-only
	profiles  *core.ProfileStore // per-skeleton work/span, feeds admission
	adm       *admission         // tenant-fair front door (ladder + brownout)
	lps       lpTotal            // Σ of every job's last reported LP
	// eventFlushes counts the flushes of every /jobs/{id}/events stream.
	eventFlushes atomic.Uint64

	// programs interns program texts: the jobs of one text share it. It
	// holds at most cfg.retain texts and starts over when full.
	progMu   sync.Mutex
	programs map[string]string

	mu   sync.Mutex
	jobs map[string]*job
	// remoteLogs holds the event log of every job executing on the cluster.
	remoteLogs map[string]*eventLog
	// order lists the ids in submission order. An evicted id stays in it
	// until evictLocked trims it, and every reader skips ids not in jobs.
	order     []string
	queue     []*job // accepted, waiting for budget (FIFO)
	nextID    int
	draining  bool
	recovered int           // jobs rehydrated or re-queued from the journal
	live      int           // jobs accepted and not yet finished
	idle      chan struct{} // closed when live reaches 0 while Drain waits

	// retired lists the finished jobs kept in the table, in the order they
	// finished; past cfg.retain the first is evicted. evicted counts the
	// evictions, and evictedRetries/evictedFaults keep the evicted jobs'
	// fault counters (journaled prior included), so the fleet totals on
	// /metrics never go down.
	retired                       []string
	evicted                       int
	evictedRetries, evictedFaults uint64

	// beforeFreeze, when set, sees each job that watch is about to freeze:
	// terminal, journaled, stopped, its live handle still in place (tests).
	beforeFreeze func(*job)
}

// New builds a server and starts the arbiter's rebalance ticker.
func New(cfg Config) *Server {
	if cfg.Budget < 1 {
		cfg.Budget = 2 * runtime.GOMAXPROCS(0)
	}
	if cfg.Rebalance <= 0 {
		cfg.Rebalance = 25 * time.Millisecond
	}
	if cfg.AnalysisTick <= 0 {
		cfg.AnalysisTick = 5 * time.Millisecond
	}
	if cfg.AnalysisInterval <= 0 {
		cfg.AnalysisInterval = 2 * time.Millisecond
	}
	if cfg.EventLog <= 0 {
		cfg.EventLog = 8192
	}
	if cfg.retain <= 0 {
		cfg.retain = retainJobs
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.System
	}
	s := &Server{
		cfg:        cfg,
		arb:        core.NewArbiter(cfg.Budget, cfg.Clock),
		clk:        cfg.Clock,
		jn:         cfg.Journal,
		profiles:   core.NewProfileStore(),
		programs:   map[string]string{},
		jobs:       map[string]*job{},
		remoteLogs: map[string]*eventLog{},
	}
	s.adm = newAdmission(admissionConfig{
		QueueMax:   cfg.QueueMax,
		Tenants:    cfg.Tenants,
		Clock:      cfg.Clock,
		OnBrownout: s.onBrownout,
	})
	for t, w := range cfg.Tenants {
		s.arb.SetTenantWeight(t, w)
	}
	if cfg.Cluster != nil {
		cfg.Cluster.SetOnNodeEvent(s.onNodeEvent)
	}
	s.startTime = s.clk.Now()
	s.stopArb = s.arb.StartTicker(cfg.Rebalance)
	s.recover(cfg.Recover)
	return s
}

// Budget returns the machine-wide LP budget.
func (s *Server) Budget() int { return s.arb.Budget() }

// Arbiter exposes the budget arbiter (API handlers, tests).
func (s *Server) Arbiter() *core.Arbiter { return s.arb }

// SubmitSpec is a decoded job submission.
type SubmitSpec struct {
	Skeleton  string
	Params    skandium.Params
	Goal      time.Duration // 0 disables autonomic adaptation
	MaxLP     int           // per-job LP QoS cap; 0 = uncapped
	InitialLP int           // LP wished for until the first analysis (default 1, the paper's setup)
	// Policy names the adaptation rule driving this job's controller
	// ("" = the server's DefaultPolicy, then the paper rule). Unknown
	// names are rejected synchronously at submit.
	Policy string

	// Tenant names whose traffic the job is ("" = the default tenant);
	// Priority ranks it on the admission ladder: < 0 is batch work shed
	// first, 0 is normal, > 0 rides until the hard queue-full wall.
	Tenant   string
	Priority int

	// Fault tolerance (all optional; zero values reproduce the historical
	// fail-fast behaviour).
	MuscleTimeout time.Duration // per-muscle deadline; 0 = none
	RetryAttempts int           // total attempts per muscle; <= 1 = no retry
	RetryBackoff  time.Duration // base delay of the exponential backoff
	Partial       string        // "", "failfast", "skip" or "substitute"
	Substitute    any           // stand-in value when Partial == "substitute"
}

// parsePartial validates the submission's partial-failure policy name.
func parsePartial(name string, sub any) (skandium.PartialPolicy, error) {
	switch name {
	case "", "failfast":
		return skandium.FailFast(), nil
	case "skip":
		return skandium.SkipFailed(), nil
	case "substitute":
		return skandium.Substitute(sub), nil
	default:
		return skandium.PartialPolicy{}, fmt.Errorf("unknown partial policy %q (want failfast, skip or substitute)", name)
	}
}

// newJob is the one job constructor, shared by Submit and journal
// recovery: it looks the blueprint up and builds it, parses the
// partial-failure policy, fills the LP and policy defaults, decides cluster
// eligibility and gives the job its event log and recorder. The params are
// kept as their JSON, and the map is not kept. The job it returns has no id
// and is in no table yet. spec is normalised in place, so the journal
// records what runs.
func (s *Server) newJob(spec *SubmitSpec) (*job, error) {
	bp, ok := skandium.LookupBlueprint(spec.Skeleton)
	if !ok {
		return nil, fmt.Errorf("unknown skeleton %q", spec.Skeleton)
	}
	if spec.Params == nil {
		spec.Params = skandium.Params{}
	}
	runner, err := bp.Build(spec.Params)
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", spec.Skeleton, err)
	}
	var params []byte
	if len(spec.Params) > 0 {
		if params, err = json.Marshal(spec.Params); err != nil {
			return nil, fmt.Errorf("params: %w", err)
		}
	}
	partial, err := parsePartial(spec.Partial, spec.Substitute)
	if err != nil {
		return nil, err
	}
	if spec.InitialLP < 1 {
		spec.InitialLP = 1
	}
	policy := spec.Policy
	if policy == "" {
		policy = s.cfg.DefaultPolicy
	}
	now := s.clk.Now()
	j := &job{
		skeleton: spec.Skeleton,
		program:  s.intern(runner.Program()),
		params:   params,
		goal:     spec.Goal,
		maxLP:    spec.MaxLP,
		policy:   policy,
		tenant:   core.CanonTenant(spec.Tenant),
		priority: spec.Priority,
		timeout:  spec.MuscleTimeout,
		retries:  spec.RetryAttempts,
		partial:  partial.String(),
		created:  now.Sub(s.startTime),
		state:    stateQueued,
		remoteOK: s.cfg.Cluster != nil && bp.Remote != nil &&
			spec.Goal == 0 && spec.MuscleTimeout == 0 &&
			spec.RetryAttempts <= 1 && spec.Partial == "",
		live: &live{runner: runner, initLP: spec.InitialLP, backoff: spec.RetryBackoff,
			partial: partial, log: newEventLog(s.cfg.EventLog, now), rec: metrics.NewRecorder()},
	}
	j.log = j.live.log
	return j, nil
}

// intern returns the program text the server keeps for text.
func (s *Server) intern(text string) string {
	s.progMu.Lock()
	defer s.progMu.Unlock()
	if p, ok := s.programs[text]; ok {
		return p
	}
	if len(s.programs) >= s.cfg.retain {
		clear(s.programs)
	}
	s.programs[text] = text
	return text
}

// Submit accepts a job: the blueprint is compiled immediately (rejecting
// bad params synchronously), then the job either starts — when the budget
// has room — or queues. Admission control runs first: during drain all
// submissions are refused; the tenant-fair admission ladder sheds optional
// work under pressure with OverloadError; a WCT goal the predictor's
// profile proves unreachable under the whole budget is rejected with
// InfeasibleError rather than accepted and missed.
func (s *Server) Submit(spec SubmitSpec) (*job, error) {
	j, err := s.newJob(&spec)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if j.policy != "" {
		if _, err := core.NewPolicy(j.policy, 0); err != nil {
			return nil, err
		}
	}
	if j.goal > 0 {
		if pr, ok := s.profiles.Lookup(j.skeleton); ok &&
			!core.Feasible(j.goal, pr.Work, pr.Span, s.arb.Budget()) {
			s.adm.refused(j.tenant, metrics.ShedInfeasible)
			return nil, &InfeasibleError{
				Skeleton: j.skeleton, Goal: j.goal,
				Work: pr.Work, Span: pr.Span, Budget: s.arb.Budget(),
			}
		}
	}
	if s.Draining() {
		s.adm.refused(j.tenant, metrics.ShedDraining)
		return nil, ErrDraining
	}

	// The ladder rules outside s.mu (admission is a leaf component with its
	// own queue accounting), so a brownout transition it trips can call
	// straight back into the server.
	v := s.adm.decide(j.tenant, j.priority)
	if !v.admit {
		return nil, &OverloadError{Reason: v.reason, Queued: v.queued, RetryAfter: v.retryAfter}
	}

	s.mu.Lock()
	if s.draining {
		// Drain began between the ladder ruling and here: give the reserved
		// queue slot back and refuse.
		s.mu.Unlock()
		s.adm.dequeued(j.tenant)
		s.adm.refused(j.tenant, metrics.ShedDraining)
		return nil, ErrDraining
	}
	s.nextID++
	j.id = fmt.Sprintf("job-%d", s.nextID)
	s.enqueueLocked(j)
	if s.jn != nil {
		// Write-ahead: the submission is durable before the job can start.
		_ = s.jn.Submit(j.id, toJournalSpec(spec, j.program))
	}
	s.admitLocked()
	s.mu.Unlock()
	return j, nil
}

// enqueueLocked enters a queued job into the job table and the wait queue.
// Caller holds s.mu.
func (s *Server) enqueueLocked(j *job) {
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.queue = append(s.queue, j)
	s.live++
}

// finishedLocked counts a job out of the live set once it is terminal and
// journaled; the last one wakes Drain. Caller holds s.mu.
func (s *Server) finishedLocked() {
	s.live--
	if s.live == 0 && s.idle != nil {
		close(s.idle)
		s.idle = nil
	}
}

// retireLocked keeps a finished job — frozen, its terminal record
// journaled — among the retained ones, and evicts the job that finished
// first once more than cfg.retain are kept. Caller holds s.mu.
func (s *Server) retireLocked(j *job) {
	s.retired = append(s.retired, j.id)
	if len(s.retired) > s.cfg.retain {
		s.evictLocked(s.retired[0])
		s.retired = s.retired[1:]
	}
}

// evictLocked drops a finished job from the job table and the journal's
// state table, and folds its fault counters into the fleet base. order is
// trimmed once it holds twice the table, so trimming costs O(1) per
// eviction. Caller holds s.mu.
func (s *Server) evictLocked(id string) {
	j := s.jobs[id]
	delete(s.jobs, id)
	_, _, h, _, _, _, _ := j.snapshot()
	fs := j.totalFaults(h)
	s.evictedRetries += fs.Retries
	s.evictedFaults += fs.Faults
	s.evicted++
	if s.jn != nil {
		s.jn.Forget(id)
	}
	if len(s.order) > 2*len(s.jobs) {
		kept := s.order[:0]
		for _, k := range s.order {
			if _, ok := s.jobs[k]; ok {
				kept = append(kept, k)
			}
		}
		clear(s.order[len(kept):])
		s.order = kept
	}
}

// policySeed derives a stable per-job seed for stochastic policies.
func policySeed(id string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(id))
	return int64(h.Sum64())
}

// ErrDraining rejects submissions during shutdown.
var ErrDraining = fmt.Errorf("server: draining, not accepting jobs")

// OverloadError sheds a submission on the admission ladder. The HTTP layer
// renders it as 429 with a Retry-After hint derived from the drain rate.
type OverloadError struct {
	Reason     string // metrics.Shed* label naming the rung that refused
	Queued     int
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	reason := e.Reason
	if reason == "" {
		reason = metrics.ShedQueueFull
	}
	return fmt.Sprintf("server: overloaded (%s), %d jobs already queued (retry in %v)", reason, e.Queued, e.RetryAfter)
}

// onBrownout reacts to a brownout transition: cluster hedging is disabled
// while browned out (speculative duplicates are the first optional load to
// shed) and the transition is threaded into the event log of every live
// job, so a job's timeline shows the overload window that shaped it.
func (s *Server) onBrownout(on bool, at time.Time) {
	if s.cfg.Cluster != nil {
		s.cfg.Cluster.SetHedging(!on)
	}
	kind := "brownout-off"
	if on {
		kind = "brownout-on"
	}
	s.mu.Lock()
	logs := make([]*eventLog, 0, len(s.jobs))
	for _, j := range s.jobs {
		j.mu.Lock()
		if !j.state.terminal() {
			logs = append(logs, j.live.log)
		}
		j.mu.Unlock()
	}
	s.mu.Unlock()
	for _, l := range logs {
		l.appendText(at, "admission@"+kind, "admission", kind, "admission", "")
	}
}

// InfeasibleError rejects a submission whose WCT goal is provably
// unreachable: even granted the whole budget, the skeleton's observed
// work/span lower-bounds the makespan above the goal.
type InfeasibleError struct {
	Skeleton   string
	Goal       time.Duration
	Work, Span time.Duration
	Budget     int
}

func (e *InfeasibleError) Error() string {
	return fmt.Sprintf(
		"server: goal %v for %s is infeasible: observed work %v / span %v lower-bound the makespan above the goal even at the full budget of %d",
		e.Goal, e.Skeleton, e.Work, e.Span, e.Budget)
}

// admitLocked starts queued jobs while the arbiter has capacity. Caller
// holds s.mu.
func (s *Server) admitLocked() {
	for len(s.queue) > 0 {
		j := s.queue[0]
		if err := s.arb.AdmitFor(j.id, j.tenant, j); err != nil {
			return // at capacity (or duplicate — impossible by construction)
		}
		s.queue = s.queue[1:]
		s.adm.started(j.tenant)
		s.start(j)
	}
}

// start launches an admitted job's stream. The arbiter has already set the
// job's grant (Admit rebalances), so the stream starts capped: the sum of
// pool LPs never exceeds the budget, not even transiently.
func (s *Server) start(j *job) {
	if s.cfg.Cluster != nil && s.remoteEligible(j) {
		s.startRemote(j)
		return
	}
	j.mu.Lock()
	l := j.live
	grant := j.grant
	if grant < 1 {
		grant = 1
	}
	opts := []skandium.Option{
		skandium.WithLP(l.initLP),
		skandium.WithMaxLP(j.maxLP),
		skandium.WithLPCap(grant),
		skandium.WithClock(s.clk),
		skandium.WithGauge(func(now time.Time, active, lp int) { s.gauge(l, now, active, lp) }),
		skandium.WithListener(l.log.listener()),
		skandium.WithPartialFailure(l.partial),
	}
	if j.timeout > 0 {
		opts = append(opts, skandium.WithMuscleTimeout(j.timeout))
	}
	if j.retries > 1 {
		opts = append(opts, skandium.WithRetry(skandium.RetryPolicy{MaxAttempts: j.retries, BaseDelay: l.backoff}))
	}
	if j.goal > 0 {
		opts = append(opts,
			skandium.WithWCTGoal(j.goal),
			skandium.WithAnalysisInterval(s.cfg.AnalysisInterval),
			skandium.WithAnalysisTicker(s.cfg.AnalysisTick),
		)
		if j.policy != "" {
			// A fresh instance per start: stateful policies (hillclimb,
			// bandit) must not be shared across concurrent controllers. The
			// seed derives from the job id so re-runs reproduce.
			if p, err := skandium.NewPolicy(j.policy, policySeed(j.id)); err == nil {
				opts = append(opts, skandium.WithPolicy(p))
			} else {
				// Submit validates policy names, but a journal written by a
				// binary with a richer registry (a newer build) can recover
				// a name this one does not know. Fall back to the paper rule
				// visibly: log the fallback into the job's event stream and
				// stop reporting the unhonoured name in job views.
				l.log.appendText(s.clk.Now(),
					fmt.Sprintf("policy %q unknown to this binary: falling back to the paper rule", j.policy),
					"", "", "", "")
				j.policy = ""
			}
		}
	}
	if s.jn != nil {
		// Write-ahead: the start is durable before any muscle runs, and
		// fault counters are journaled as they advance so a crash cannot
		// zero them.
		_ = s.jn.Start(j.id)
		opts = append(opts, onFaultEvents(s.faultJournalListener(j))...)
	}
	l.stream = l.runner.Start(opts...)
	l.runner = nil
	j.handle = l.stream
	j.state = stateRunning
	j.started = s.clk.Now().Sub(s.startTime)
	j.mu.Unlock()
	go s.watch(j, l)
}

// onFaultEvents registers l for the fault vocabulary only — once for Retry,
// once for Fault events — so it is not called for (and the registry's Wants
// gate is not opened by it to) the thousands of ordinary events of a job.
func onFaultEvents(l event.Listener) []skandium.Option {
	return []skandium.Option{
		skandium.WithListener(l, event.Filter{Where: event.Retry, HasWhere: true}),
		skandium.WithListener(l, event.Filter{Where: event.Fault, HasWhere: true}),
	}
}

// faultJournalListener persists a job's cumulative retry/fault counters on
// every fault-vocabulary event. It runs on worker goroutines, so it only
// touches atomics and the journal's own lock.
func (s *Server) faultJournalListener(j *job) event.Listener {
	return event.Func(func(e *event.Event) any {
		switch e.Where {
		case event.Retry:
			j.faultRetries.Add(1)
		case event.Fault:
			j.faultFaults.Add(1)
		default:
			return e.Param
		}
		fc := journal.FaultCounts{Retries: j.faultRetries.Load(), Faults: j.faultFaults.Load()}
		if j.prior != nil {
			fc.Retries += j.prior.Retries
			fc.Faults += j.prior.Faults
		}
		_ = s.jn.Fault(j.id, fc)
		return e.Param
	})
}

// watch waits for a job to finish, persists the outcome, returns its
// budget, admits the next queued job and, once the job has stopped, freezes
// it to its outcome.
func (s *Server) watch(j *job, l *live) {
	var h execution
	var res any
	var err error
	if l.remote != nil {
		h = l.remote
		res, err = l.remote.result()
	} else {
		h = l.stream
		res, err = l.stream.Result()
	}
	now := s.clk.Now()
	var summary string
	if err == nil {
		summary = summarize(res)
	}

	j.mu.Lock()
	j.finished = now.Sub(s.startTime)
	j.summary, j.err = summary, err
	switch {
	case err == nil:
		j.state = stateDone
	case j.canceled || err == errCanceled || err == errShutdown || err == skandium.ErrClosed:
		j.state = stateCanceled
	default:
		j.state = stateFailed
	}
	state := j.state
	j.mu.Unlock()

	if s.jn != nil {
		fc := faultCounts(j.totalFaults(h))
		switch state {
		case stateDone:
			_ = s.jn.Finish(j.id, journal.StateDone, summary, "", fc)
		case stateFailed:
			_ = s.jn.Finish(j.id, journal.StateFailed, "", err.Error(), fc)
		case stateCanceled:
			_ = s.jn.Cancel(j.id, err.Error())
		}
	}
	if state == stateDone {
		// Feed the admission-control profile: busy time is the serial work,
		// the controller's best-effort estimate is the span (zero without a
		// goal — the work bound still applies).
		var span time.Duration
		if d := h.Demand(); d.Valid && d.BestWCT > 0 {
			span = d.BestWCT
		}
		s.profiles.Observe(j.skeleton, h.Stats().BusyTime, span)
	}
	s.adm.finished(now) // feed the drain-rate estimate behind Retry-After

	s.gauge(l, now, 0, 0) // the aggregate drops to reality
	l.log.close()
	s.arb.Release(j.id)
	if l.stream != nil {
		l.stream.Close()
	}

	s.mu.Lock()
	s.finishedLocked()
	s.admitLocked()
	s.mu.Unlock()

	// Close leaves running muscles running, and their counts land after
	// them: the readings are final, and the job can be frozen, only once it
	// has stopped. The budget is already back, so nothing waits on this.
	if l.stream != nil {
		l.stream.Wait()
	}
	if s.beforeFreeze != nil {
		s.beforeFreeze(j)
	}
	j.mu.Lock()
	j.freezeLocked(s.startTime)
	j.mu.Unlock()
	s.mu.Lock()
	s.retireLocked(j)
	s.mu.Unlock()
}

// faultCounts converts the fault stats into their journal form.
func faultCounts(fs skandium.FaultStats) journal.FaultCounts {
	return journal.FaultCounts{
		Retries: fs.Retries, Faults: fs.Faults, Timeouts: fs.Timeouts,
		Skipped: fs.Skipped, Substituted: fs.Substituted,
	}
}

// Job looks a job up by id.
func (s *Server) Job(id string) (*job, bool) {
	j, _ := s.lookup(id)
	return j, j != nil
}

// lookup finds a job by id; gone reports an id the server issued and has
// since evicted. Ids are issued in sequence, so any job-N up to the last
// one issued that the table lacks was evicted.
func (s *Server) lookup(id string) (j *job, gone bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j := s.jobs[id]; j != nil {
		return j, false
	}
	n, ok := jobNum(id)
	return nil, ok && n <= s.nextID
}

// JobIDs returns the ids of the jobs in the table in submission order.
func (s *Server) JobIDs() []string {
	jobs := s.jobList()
	ids := make([]string, len(jobs))
	for i, j := range jobs {
		ids[i] = j.id
	}
	return ids
}

// jobList returns the jobs in the table in submission order.
func (s *Server) jobList() []*job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobListLocked()
}

// jobListLocked is jobList for a caller that holds s.mu.
func (s *Server) jobListLocked() []*job {
	jobs := make([]*job, 0, len(s.jobs))
	for _, id := range s.order {
		if j, ok := s.jobs[id]; ok {
			jobs = append(jobs, j)
		}
	}
	return jobs
}

// Cancel aborts a job. Queued jobs are canceled in place; running jobs are
// canceled through their execution (running muscles finish, nothing new
// starts). Unknown ids report false.
func (s *Server) Cancel(id string) bool {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return false
	}
	wasQueued := false
	for i, q := range s.queue {
		if q == j {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			wasQueued = true
			break
		}
	}
	s.mu.Unlock()
	if wasQueued {
		s.adm.dequeued(j.tenant)
	}

	j.mu.Lock()
	j.canceled = true
	l := j.live
	canceledInPlace := s.cancelQueuedLocked(j, errCanceled)
	j.mu.Unlock()
	if canceledInPlace {
		if s.jn != nil {
			_ = s.jn.Cancel(j.id, errCanceled.Error())
		}
		s.mu.Lock()
		s.finishedLocked()
		s.retireLocked(j)
		s.mu.Unlock()
	} else if l != nil {
		l.cancel(errCanceled) // watch journals the terminal state
		l.log.close()
	}
	return true
}

// cancelQueuedLocked resolves a job that is neither terminal nor started
// with err and freezes it, and reports whether it did. Caller holds j.mu.
func (s *Server) cancelQueuedLocked(j *job, err error) bool {
	if j.handle != nil || j.state.terminal() {
		return false
	}
	j.state = stateCanceled
	j.finished = s.clk.Now().Sub(s.startTime)
	j.err = err
	j.freezeLocked(s.startTime)
	return true
}

// cancel resolves the job's execution with err, if it has one: running
// muscles finish, nothing new starts, and a cluster run's results are
// discarded.
func (l *live) cancel(err error) {
	switch {
	case l.stream != nil:
		l.stream.Cancel(err)
	case l.remote != nil:
		l.remote.cancel(err)
	}
}

// AdjustQoS changes a running job's WCT goal and/or LP cap and triggers an
// immediate rebalance so the new wish is arbitrated right away. Nil fields
// keep the current value. A finished job stays as it ran.
func (s *Server) AdjustQoS(id string, goal *time.Duration, maxLP *int) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("server: no job %q", id)
	}
	j.mu.Lock()
	if j.state.terminal() {
		j.mu.Unlock()
		return nil
	}
	if goal != nil {
		j.goal = *goal
	}
	if maxLP != nil {
		j.maxLP = *maxLP
	}
	st := j.streamLocked()
	goalNow, maxNow := j.goal, j.maxLP
	j.mu.Unlock()
	if st != nil {
		if goal != nil {
			st.SetGoal(goalNow)
		}
		if maxLP != nil {
			st.SetMaxLP(maxNow)
		}
	}
	s.arb.Rebalance()
	return nil
}

// BeginDrain stops accepting submissions; running and queued jobs proceed.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// Draining reports whether the server is refusing submissions.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Health degradation states for /healthz, most severe first.
const (
	HealthDraining   = "draining"    // shutting down, refusing submissions
	HealthRecovering = "recovering"  // journal-recovered jobs still queued
	HealthBrownedOut = "browned-out" // sustained overload, optional work shed
	HealthOverloaded = "overloaded"  // wait queue at capacity, shedding
	HealthOK         = "ok"
)

// Health reports the daemon's degradation state. Brownout outranks
// overloaded: a full queue is an instantaneous condition, brownout is the
// sustained one the hysteresis has confirmed.
func (s *Server) Health() string {
	// Polling re-evaluates the brownout hysteresis even when traffic has
	// gone quiet — the health probe is what observes the recovery.
	s.adm.poll(s.clk.Now())
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.draining:
		return HealthDraining
	case s.recoveringLocked():
		return HealthRecovering
	case s.adm.isBrownedOut():
		return HealthBrownedOut
	case s.cfg.QueueMax > 0 && len(s.queue) >= s.cfg.QueueMax:
		return HealthOverloaded
	default:
		return HealthOK
	}
}

// recoveringLocked reports whether any journal-recovered job is still
// waiting for budget. Caller holds s.mu.
func (s *Server) recoveringLocked() bool {
	for _, j := range s.queue {
		if j.recovered {
			return true
		}
	}
	return false
}

// QueueDepth returns the number of jobs waiting for budget and the bound
// (0 = unbounded).
func (s *Server) QueueDepth() (queued, max int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue), s.cfg.QueueMax
}

// RecoveredJobs returns how many jobs the journal replay rehydrated or
// re-queued.
func (s *Server) RecoveredJobs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovered
}

// Journal exposes the write-ahead journal (nil when memory-only).
func (s *Server) Journal() *journal.Journal { return s.jn }

// Drain refuses new submissions and waits until every accepted job reached
// a terminal state and was journaled (the last one to get there wakes it),
// or ctx expires; on expiry the stragglers are canceled
// (running muscles still finish — the pool never interrupts them). The
// returned error is ctx's when the deadline cut the drain short.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	if s.live == 0 {
		s.mu.Unlock()
		return nil
	}
	if s.idle == nil {
		s.idle = make(chan struct{})
	}
	idle := s.idle
	s.mu.Unlock()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		for _, j := range s.jobList() {
			if st, _, _, _, _, _, _ := j.snapshot(); !st.terminal() {
				s.Cancel(j.id)
			}
		}
		return ctx.Err()
	}
}

// Close stops the arbiter and tears every job down (canceling what still
// runs). Call after Drain for a graceful stop, or alone for a hard one.
func (s *Server) Close() {
	s.stopArb()
	s.mu.Lock()
	jobs := s.jobListLocked()
	s.queue = nil
	s.draining = true
	s.mu.Unlock()
	for _, j := range jobs {
		j.mu.Lock()
		l := j.live
		canceledInPlace := s.cancelQueuedLocked(j, errShutdown)
		j.mu.Unlock()
		if canceledInPlace {
			s.mu.Lock()
			s.finishedLocked()
			s.mu.Unlock()
		} else if l != nil {
			l.cancel(errShutdown)
			if l.stream != nil {
				l.stream.Close()
			}
			l.log.close()
		}
	}
}

// stateCounts summarizes job states for /healthz and /metrics.
func (s *Server) stateCounts() map[jobState]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := map[jobState]int{}
	for _, j := range s.jobs {
		j.mu.Lock()
		out[j.state]++
		j.mu.Unlock()
	}
	return out
}

// statesInOrder lists the states deterministically for text exposition.
func statesInOrder(m map[jobState]int) []jobState {
	states := make([]jobState, 0, len(m))
	for st := range m {
		states = append(states, st)
	}
	sort.Slice(states, func(i, j int) bool { return states[i] < states[j] })
	return states
}
