package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"sort"
	"strconv"
	"time"

	"skandium"
	"skandium/internal/exec"
	"skandium/internal/journal"
)

// Handler returns the daemon's HTTP API (skelrund serves net/http/pprof on
// a listener of its own, never on this one). A /jobs/{id} route answers
// 410 Gone for a job the daemon issued and has since evicted (it keeps the
// last retainJobs finished jobs) and 404 for an id it never issued:
//
//	GET    /healthz                   liveness + drain state
//	GET    /metrics                   text exposition of fleet/job/pool gauges
//	GET    /skeletons                 registered blueprint catalog
//	POST   /jobs                      submit a job
//	GET    /jobs                      list jobs
//	GET    /jobs/{id}                 one job's status/QoS/arbitration
//	GET    /jobs/{id}/decisions       the autonomic decision log
//	GET    /jobs/{id}/events          NDJSON event stream (?follow=1&from=N; a
//	                                  follower sees an intermediate record up
//	                                  to flushEvery (20 ms) late, the end at once)
//	GET    /jobs/{id}/timeline        NDJSON LP/WCT timeline (+ decisions)
//	PATCH  /jobs/{id}/qos             adjust WCT goal / max LP at runtime
//	DELETE /jobs/{id}                 cancel a job
//	GET    /arbiter                   budget, grants and grant decisions
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /skeletons", s.handleSkeletons)
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleJobs)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /jobs/{id}/decisions", s.handleDecisions)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /jobs/{id}/timeline", s.handleTimeline)
	mux.HandleFunc("PATCH /jobs/{id}/qos", s.handleQoS)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /arbiter", s.handleArbiter)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := s.Health()
	counts := s.stateCounts()
	jobs := map[string]int{}
	for _, st := range statesInOrder(counts) {
		jobs[string(st)] = counts[st]
	}
	queued, queueMax := s.QueueDepth()
	body := map[string]any{
		"status":    status,
		"budget":    s.Budget(),
		"jobs":      jobs,
		"queue":     queued,
		"queue_max": queueMax,
	}
	if n := s.RecoveredJobs(); n > 0 {
		body["recovered"] = n
	}
	ast := s.adm.stats()
	if len(ast.Sheds) > 0 {
		body["shed"] = ast.Sheds
	}
	adm := map[string]any{
		"browned_out": ast.BrownedOut,
		"brownouts":   ast.Brownouts,
	}
	if len(ast.Queued) > 0 {
		adm["queued"] = ast.Queued
	}
	if len(ast.Quotas) > 0 {
		adm["quotas"] = ast.Quotas
	}
	if len(ast.Weights) > 0 {
		adm["weights"] = ast.Weights
	}
	body["admission"] = adm
	if jn := s.Journal(); jn != nil {
		c := jn.Counters()
		body["journal"] = map[string]uint64{
			"appends": c.Appends, "fsyncs": c.Fsyncs, "rotations": c.Rotations,
			"compactions": c.Compactions, "torn": c.Torn, "replayed": c.Replayed,
		}
	}
	if cl := s.cfg.Cluster; cl != nil {
		nodes := cl.Nodes()
		views := make([]map[string]any, 0, len(nodes))
		for _, n := range nodes {
			v := map[string]any{
				"addr": n.Addr, "healthy": n.Healthy, "state": n.State,
				"grant": n.Grant, "tasks": n.Tasks,
				"lp": n.Report.LP, "active": n.Report.Active, "queued": n.Report.Queued,
			}
			if n.ConsecFails > 0 {
				v["consec_fails"] = n.ConsecFails
			}
			if n.LastErr != "" {
				v["last_error"] = n.LastErr
			}
			if n.LastCause != "" {
				v["last_cause"] = n.LastCause
			}
			views = append(views, v)
		}
		body["cluster"] = map[string]any{
			"workers":  len(nodes),
			"healthy":  cl.Healthy(),
			"serving":  cl.Serving(),
			"budget":   cl.Budget(),
			"granted":  cl.Granted(),
			"degraded": cl.Degraded(),
			"hedged":   cl.Hedged(),
			"nodes":    views,
		}
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleSkeletons(w http.ResponseWriter, r *http.Request) {
	type bpView struct {
		Name        string          `json:"name"`
		Description string          `json:"description"`
		Defaults    skandium.Params `json:"defaults,omitempty"`
	}
	var out []bpView
	for _, b := range skandium.Blueprints() {
		out = append(out, bpView{Name: b.Name, Description: b.Description, Defaults: b.Defaults})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleSubmit decodes POST /jobs straight into the journal's form of a
// submission, which is already in the API's JSON units. The X-Skel-Tenant
// header wins over the body's tenant field when both are set.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req journal.Spec
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad submit body: %w", err))
		return
	}
	if h := r.Header.Get("X-Skel-Tenant"); h != "" {
		req.Tenant = h
	}
	j, err := s.Submit(fromJournalSpec(req))
	var over *OverloadError
	var infeasible *InfeasibleError
	switch {
	case errors.Is(err, ErrDraining):
		// Even the drain hint is drain-rate-derived: tell the client when
		// the backlog (which still runs during graceful shutdown) should
		// have moved, instead of a hardcoded number of seconds.
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSecs(s.adm.retryAfter())))
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"error": err.Error(), "rejected": "draining",
		})
		return
	case errors.As(err, &over):
		reason := over.Reason
		if reason == "" {
			reason = "queue-full"
		}
		secs := retryAfterSecs(over.RetryAfter)
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeJSON(w, http.StatusTooManyRequests, map[string]any{
			"error": err.Error(), "rejected": reason, "retry_after_s": secs,
		})
		return
	case errors.As(err, &infeasible):
		writeJSON(w, http.StatusUnprocessableEntity, map[string]any{
			"error": err.Error(), "rejected": "goal-infeasible",
		})
		return
	case err != nil:
		code := http.StatusBadRequest
		writeError(w, code, err)
		return
	}
	writeJSON(w, http.StatusAccepted, s.jobView(j))
}

// retryAfterSecs renders a Retry-After duration as whole seconds, never
// below 1 (a zero header would invite an immediate retry storm).
func retryAfterSecs(d time.Duration) int {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// jobView is the API projection of one job.
type jobView struct {
	ID          string          `json:"id"`
	Skeleton    string          `json:"skeleton"`
	Program     string          `json:"program"`
	Params      json.RawMessage `json:"params,omitempty"`
	State       string          `json:"state"`
	Tenant      string          `json:"tenant,omitempty"`
	Priority    int             `json:"priority,omitempty"`
	GoalMS      float64         `json:"goal_ms,omitempty"`
	MaxLP       int             `json:"max_lp,omitempty"`
	Policy      string          `json:"policy,omitempty"`
	LP          int             `json:"lp"`
	Active      int             `json:"active"`
	Grant       int             `json:"grant"`
	DesiredLP   int             `json:"desired_lp,omitempty"`
	OptimalLP   int             `json:"optimal_lp,omitempty"`
	PredictedMS float64         `json:"predicted_wct_ms,omitempty"`
	OvershootMS float64         `json:"overshoot_ms,omitempty"`
	Analyses    int             `json:"analyses"`
	Decisions   int             `json:"decisions"`
	Events      int64           `json:"events"`
	TasksRun    uint64          `json:"tasks_run"`
	BusyMS      float64         `json:"busy_ms"`
	CreatedMS   float64         `json:"created_ms"`
	StartedMS   float64         `json:"started_ms,omitempty"`
	FinishedMS  float64         `json:"finished_ms,omitempty"`
	Result      string          `json:"result,omitempty"`
	Error       string          `json:"error,omitempty"`

	// Fault-tolerance configuration and counters.
	TimeoutMS      float64 `json:"timeout_ms,omitempty"`
	RetryAttempts  int     `json:"retry_attempts,omitempty"`
	Partial        string  `json:"partial,omitempty"`
	Retries        uint64  `json:"retries_total,omitempty"`
	Faults         uint64  `json:"faults_total,omitempty"`
	Timeouts       uint64  `json:"timeouts_total,omitempty"`
	Skipped        uint64  `json:"skipped_total,omitempty"`
	Substituted    uint64  `json:"substituted_total,omitempty"`
	FailedBranches int     `json:"failed_branches,omitempty"`

	// Durability. Recovered marks a job that survived a daemon restart:
	// either re-queued from the journal (it re-ran) or rehydrated from the
	// snapshot (its persisted outcome is served). EventsDropped counts
	// records the bounded event ring evicted.
	Recovered     bool  `json:"recovered,omitempty"`
	EventsDropped int64 `json:"events_dropped,omitempty"`
}

// sinceStart renders a timestamp as ms since the server start (0 for zero
// times), keeping the API clock-agnostic.
func (s *Server) sinceStart(t time.Time) float64 {
	if t.IsZero() {
		return 0
	}
	return float64(t.Sub(s.startTime)) / float64(time.Millisecond)
}

func (s *Server) jobView(j *job) jobView {
	state, grant, h, started, finished, summary, jerr := j.snapshot()
	log := j.events()
	v := jobView{
		ID:         j.id,
		Skeleton:   j.skeleton,
		Program:    j.program,
		Params:     j.params,
		State:      string(state),
		Tenant:     j.tenant,
		Priority:   j.priority,
		GoalMS:     float64(j.goal) / float64(time.Millisecond),
		MaxLP:      j.maxLP,
		Policy:     j.policy,
		Grant:      grant,
		Events:     log.len(),
		CreatedMS:  durToMS(j.created),
		StartedMS:  durToMS(started),
		FinishedMS: durToMS(finished),
	}
	v.TimeoutMS = durToMS(j.timeout)
	v.RetryAttempts = j.retries
	v.Partial = j.partial
	v.Recovered = j.recovered
	v.EventsDropped = log.droppedCount()
	fs := j.totalFaults(h)
	v.Retries, v.Faults, v.Timeouts = fs.Retries, fs.Faults, fs.Timeouts
	v.Skipped, v.Substituted = fs.Skipped, fs.Substituted
	if h != nil {
		v.LP = h.LP()
		v.Active = h.Active()
		v.Analyses = h.Analyses()
		v.Decisions = len(h.Decisions())
		st := h.Stats()
		v.TasksRun = st.TasksRun
		v.BusyMS = float64(st.BusyTime) / float64(time.Millisecond)
		if f := h.Failures(); f != nil {
			v.FailedBranches = len(f.Failures)
		}
		if d := h.Demand(); d.Valid {
			v.DesiredLP = d.DesiredLP
			v.OptimalLP = d.OptimalLP
			v.PredictedMS = float64(d.PredictedWCT) / float64(time.Millisecond)
			v.OvershootMS = float64(d.Overshoot) / float64(time.Millisecond)
		}
	}
	if !state.terminal() {
		if d := j.Demand(); !d.Valid {
			// No controller verdict yet: the arbiter reads the job's wish.
			v.DesiredLP = d.CurrentLP
		}
	} else {
		v.LP = 0
		if jerr != nil {
			v.Error = jerr.Error()
		} else {
			v.Result = summary
		}
	}
	return v
}

// summarize renders a job result compactly: scalars and small maps print
// as JSON, big collections print as a type+length sketch (nobody wants two
// million sorted ints in a status response).
func summarize(v any) string {
	if v == nil {
		return "null"
	}
	rv := reflect.ValueOf(v)
	switch rv.Kind() {
	case reflect.Slice, reflect.Array, reflect.Map:
		if rv.Len() > 64 {
			return fmt.Sprintf("%T of %d elements", v, rv.Len())
		}
	}
	b, err := json.Marshal(v)
	if err != nil || len(b) > 4096 {
		return fmt.Sprintf("%T", v)
	}
	return string(b)
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	var out []jobView
	for _, j := range s.jobList() {
		out = append(out, s.jobView(j))
	}
	writeJSON(w, http.StatusOK, out)
}

// pathJob looks up the job the path names, or answers 410 for an evicted
// id and 404 for one never issued.
func (s *Server) pathJob(w http.ResponseWriter, r *http.Request) (*job, bool) {
	id := r.PathValue("id")
	j, gone := s.lookup(id)
	switch {
	case gone:
		writeError(w, http.StatusGone, fmt.Errorf("job %q finished and was evicted: the daemon keeps the last %d finished jobs", id, s.cfg.retain))
	case j == nil:
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", id))
	}
	return j, j != nil
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.pathJob(w, r); ok {
		writeJSON(w, http.StatusOK, s.jobView(j))
	}
}

// decisionView is one autonomic adaptation in API form.
type decisionView struct {
	TMS         float64 `json:"t_ms"`
	OldLP       int     `json:"old_lp"`
	NewLP       int     `json:"new_lp"`
	PredictedMS float64 `json:"predicted_wct_ms"`
	BestMS      float64 `json:"best_wct_ms"`
	OptimalLP   int     `json:"optimal_lp"`
	Reason      string  `json:"reason"`
}

func (s *Server) decisionViews(ds []skandium.Decision) []decisionView {
	out := make([]decisionView, 0, len(ds))
	for _, d := range ds {
		out = append(out, decisionView{
			TMS:         s.sinceStart(d.Time),
			OldLP:       d.OldLP,
			NewLP:       d.NewLP,
			PredictedMS: float64(d.PredictedWCT) / float64(time.Millisecond),
			BestMS:      float64(d.BestWCT) / float64(time.Millisecond),
			OptimalLP:   d.OptimalLP,
			Reason:      d.Reason,
		})
	}
	return out
}

func (s *Server) handleDecisions(w http.ResponseWriter, r *http.Request) {
	j, ok := s.pathJob(w, r)
	if !ok {
		return
	}
	_, _, h, _, _, _, _ := j.snapshot()
	var ds []skandium.Decision
	if h != nil {
		ds = h.Decisions()
	}
	writeJSON(w, http.StatusOK, s.decisionViews(ds))
}

// handleEvents streams the job's event log as NDJSON. With ?follow=1 the
// response keeps streaming until the job finishes or the client leaves,
// flushed in batches (logReader.stream); ?from=N resumes after sequence
// number N-1.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.pathJob(w, r)
	if !ok {
		return
	}
	follow := r.URL.Query().Get("follow") != ""
	var from int64
	fmt.Sscanf(r.URL.Query().Get("from"), "%d", &from)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flush := func() {}
	if f, ok := w.(http.Flusher); ok {
		flush = func() {
			f.Flush()
			s.eventFlushes.Add(1)
		}
	}
	j.events().reader(from).stream(r.Context(), w, flush, follow)
}

// timelineRecord is one NDJSON line of the LP/WCT timeline: gauge samples
// ("lp") interleaved with controller decisions ("decision") in time order.
type timelineRecord struct {
	Type        string  `json:"type"`
	TMS         float64 `json:"t_ms"`
	Active      int     `json:"active,omitempty"`
	LP          int     `json:"lp,omitempty"`
	OldLP       int     `json:"old_lp,omitempty"`
	NewLP       int     `json:"new_lp,omitempty"`
	PredictedMS float64 `json:"predicted_wct_ms,omitempty"`
	BestMS      float64 `json:"best_wct_ms,omitempty"`
	OptimalLP   int     `json:"optimal_lp,omitempty"`
	Reason      string  `json:"reason,omitempty"`
}

func (s *Server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	j, ok := s.pathJob(w, r)
	if !ok {
		return
	}
	_, _, h, _, _, _, _ := j.snapshot()

	var recs []timelineRecord
	for _, smp := range j.samples(s.startTime) {
		recs = append(recs, timelineRecord{
			Type: "lp", TMS: s.sinceStart(smp.T), Active: smp.Active, LP: smp.LP,
		})
	}
	if h != nil {
		for _, d := range h.Decisions() {
			recs = append(recs, timelineRecord{
				Type: "decision", TMS: s.sinceStart(d.Time),
				OldLP: d.OldLP, NewLP: d.NewLP,
				PredictedMS: float64(d.PredictedWCT) / float64(time.Millisecond),
				BestMS:      float64(d.BestWCT) / float64(time.Millisecond),
				OptimalLP:   d.OptimalLP, Reason: d.Reason,
			})
		}
	}
	sortTimeline(recs)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			return
		}
	}
}

// qosRequest is the PATCH /jobs/{id}/qos body; absent fields keep the
// current value.
type qosRequest struct {
	GoalMS *float64 `json:"goal_ms"`
	MaxLP  *int     `json:"max_lp"`
}

func (s *Server) handleQoS(w http.ResponseWriter, r *http.Request) {
	j, ok := s.pathJob(w, r)
	if !ok {
		return
	}
	var req qosRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad qos body: %w", err))
		return
	}
	var goal *time.Duration
	if req.GoalMS != nil {
		g := time.Duration(*req.GoalMS * float64(time.Millisecond))
		goal = &g
	}
	if err := s.AdjustQoS(j.id, goal, req.MaxLP); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, s.jobView(j))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.pathJob(w, r)
	if !ok {
		return
	}
	s.Cancel(j.id)
	writeJSON(w, http.StatusOK, s.jobView(j))
}

// arbiterView is the GET /arbiter response.
type arbiterView struct {
	Budget    int              `json:"budget"`
	Granted   int              `json:"granted"`
	Grants    map[string]int   `json:"grants"`
	Decisions []grantDecisionV `json:"decisions"`
}

type grantDecisionV struct {
	TMS    float64 `json:"t_ms"`
	Job    string  `json:"job"`
	OldLP  int     `json:"old_lp"`
	NewLP  int     `json:"new_lp"`
	Reason string  `json:"reason"`
}

func (s *Server) handleArbiter(w http.ResponseWriter, r *http.Request) {
	ds := s.arb.Decisions()
	out := arbiterView{
		Budget:    s.arb.Budget(),
		Granted:   s.arb.Granted(),
		Grants:    s.arb.Grants(),
		Decisions: make([]grantDecisionV, 0, len(ds)),
	}
	for _, d := range ds {
		out.Decisions = append(out.Decisions, grantDecisionV{
			TMS: s.sinceStart(d.Time), Job: d.Job,
			OldLP: d.OldLP, NewLP: d.NewLP, Reason: d.Reason,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleMetrics exposes the fleet in Prometheus text exposition format
// (hand-rolled: no dependency for a text format). The fleet-wide fault
// totals are the sums of the per-job lines plus the evicted jobs' counts,
// so the job lines are rendered first and written last. The job list and
// the evicted base are read under one lock, so a job that an eviction
// moves from one to the other is counted once and the totals never go
// down.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var perJob bytes.Buffer
	s.mu.Lock()
	jobs := s.jobListLocked()
	retries, faults, evicted := s.evictedRetries, s.evictedFaults, s.evicted
	s.mu.Unlock()
	for _, j := range jobs {
		state, grant, h, _, _, _, _ := j.snapshot()
		lp, active := 0, 0
		var stats exec.Stats
		fs := j.totalFaults(h)
		if h != nil {
			if !state.terminal() {
				lp, active = h.LP(), h.Active()
			}
			stats = h.Stats()
		}
		retries += fs.Retries
		faults += fs.Faults
		lbl := fmt.Sprintf("{job=%q,skeleton=%q}", j.id, j.skeleton)
		fmt.Fprintf(&perJob, "skelrund_job_lp%s %d\n", lbl, lp)
		fmt.Fprintf(&perJob, "skelrund_job_active%s %d\n", lbl, active)
		fmt.Fprintf(&perJob, "skelrund_job_grant%s %d\n", lbl, grant)
		fmt.Fprintf(&perJob, "skelrund_job_tasks_total%s %d\n", lbl, stats.TasksRun)
		fmt.Fprintf(&perJob, "skelrund_job_busy_seconds%s %g\n", lbl, stats.BusyTime.Seconds())
		fmt.Fprintf(&perJob, "skelrund_job_workers_spawned%s %d\n", lbl, stats.Spawned)
		fmt.Fprintf(&perJob, "skelrund_job_retries_total%s %d\n", lbl, fs.Retries)
		fmt.Fprintf(&perJob, "skelrund_job_faults_total%s %d\n", lbl, fs.Faults)
		fmt.Fprintf(&perJob, "skelrund_job_timeouts_total%s %d\n", lbl, fs.Timeouts)
		fmt.Fprintf(&perJob, "skelrund_job_skipped_total%s %d\n", lbl, fs.Skipped)
		fmt.Fprintf(&perJob, "skelrund_job_substituted_total%s %d\n", lbl, fs.Substituted)
		fmt.Fprintf(&perJob, "skelrund_job_events_dropped%s %d\n", lbl, j.events().droppedCount())
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintf(w, "# HELP skelrund_budget machine-wide LP budget\n")
	fmt.Fprintf(w, "skelrund_budget %d\n", s.Budget())
	fmt.Fprintf(w, "# HELP skelrund_granted sum of current arbiter grants\n")
	fmt.Fprintf(w, "skelrund_granted %d\n", s.arb.Granted())
	totalLP, peakLP := s.lps.read()
	fmt.Fprintf(w, "# HELP skelrund_total_lp sum of all job pools' current LP\n")
	fmt.Fprintf(w, "skelrund_total_lp %d\n", totalLP)
	fmt.Fprintf(w, "# HELP skelrund_peak_total_lp peak of the aggregate LP series\n")
	fmt.Fprintf(w, "skelrund_peak_total_lp %d\n", peakLP)
	fmt.Fprintf(w, "# HELP skelrund_retries_total muscle attempts retried, fleet-wide (evicted jobs included)\n")
	fmt.Fprintf(w, "skelrund_retries_total %d\n", retries)
	fmt.Fprintf(w, "# HELP skelrund_faults_total terminal muscle failures, fleet-wide (evicted jobs included)\n")
	fmt.Fprintf(w, "skelrund_faults_total %d\n", faults)
	queued, queueMax := s.QueueDepth()
	fmt.Fprintf(w, "# HELP skelrund_queue_len jobs waiting for budget\n")
	fmt.Fprintf(w, "skelrund_queue_len %d\n", queued)
	fmt.Fprintf(w, "# HELP skelrund_queue_max wait-queue bound (0 = unbounded)\n")
	fmt.Fprintf(w, "skelrund_queue_max %d\n", queueMax)
	fmt.Fprintf(w, "# HELP skelrund_shed_total submissions rejected by admission control\n")
	ast := s.adm.stats()
	for _, r := range sortedKeys(ast.Sheds) {
		fmt.Fprintf(w, "skelrund_shed_total{reason=%q} %d\n", r, ast.Sheds[r])
	}
	brown := 0
	if ast.BrownedOut {
		brown = 1
	}
	fmt.Fprintf(w, "# HELP skelrund_browned_out whether brownout shedding is active (1 = shedding optional work)\n")
	fmt.Fprintf(w, "skelrund_browned_out %d\n", brown)
	fmt.Fprintf(w, "# HELP skelrund_brownouts_total brownout episodes entered since start\n")
	fmt.Fprintf(w, "skelrund_brownouts_total %d\n", ast.Brownouts)
	if grants := s.arb.TenantGrants(); len(grants) > 0 {
		fmt.Fprintf(w, "# HELP skelrund_tenant_granted_lp current arbiter LP granted per tenant\n")
		for _, t := range sortedKeys(grants) {
			fmt.Fprintf(w, "skelrund_tenant_granted_lp{tenant=%q} %d\n", t, grants[t])
		}
	}
	if len(ast.TenantSheds) > 0 {
		fmt.Fprintf(w, "# HELP skelrund_tenant_shed_total submissions rejected per tenant and reason\n")
		for _, t := range sortedKeys(ast.TenantSheds) {
			for _, r := range sortedKeys(ast.TenantSheds[t]) {
				fmt.Fprintf(w, "skelrund_tenant_shed_total{tenant=%q,reason=%q} %d\n", t, r, ast.TenantSheds[t][r])
			}
		}
	}
	fmt.Fprintf(w, "# HELP skelrund_recovered_jobs jobs rehydrated or re-queued from the journal\n")
	fmt.Fprintf(w, "skelrund_recovered_jobs %d\n", s.RecoveredJobs())
	fmt.Fprintf(w, "# HELP skelrund_jobs_evicted_total finished jobs dropped from the job table past the retention cap\n")
	fmt.Fprintf(w, "skelrund_jobs_evicted_total %d\n", evicted)
	fmt.Fprintf(w, "# HELP skelrund_event_flushes_total flushes of every /jobs/{id}/events stream\n")
	fmt.Fprintf(w, "skelrund_event_flushes_total %d\n", s.eventFlushes.Load())
	if cl := s.cfg.Cluster; cl != nil {
		fmt.Fprintf(w, "# HELP skelrund_cluster_budget cluster-wide LP budget\n")
		fmt.Fprintf(w, "skelrund_cluster_budget %d\n", cl.Budget())
		fmt.Fprintf(w, "# HELP skelrund_cluster_granted sum of per-node LP grants (never exceeds the budget)\n")
		fmt.Fprintf(w, "skelrund_cluster_granted %d\n", cl.Granted())
		fmt.Fprintf(w, "# HELP skelrund_cluster_serving nodes currently shipped work (healthy, suspect or probation)\n")
		fmt.Fprintf(w, "skelrund_cluster_serving %d\n", cl.Serving())
		fmt.Fprintf(w, "# HELP skelrund_cluster_degraded_tasks_total tasks drained to the local pool after cluster brown-out\n")
		fmt.Fprintf(w, "skelrund_cluster_degraded_tasks_total %d\n", cl.Degraded())
		fmt.Fprintf(w, "# HELP skelrund_cluster_hedged_tasks_total straggler tasks re-enqueued for hedging\n")
		fmt.Fprintf(w, "skelrund_cluster_hedged_tasks_total %d\n", cl.Hedged())
		fmt.Fprintf(w, "# HELP skelrund_cluster_node_up worker health (1 = responding to probes)\n")
		fmt.Fprintf(w, "# HELP skelrund_cluster_node_state worker health state (1 on the current state's series)\n")
		fmt.Fprintf(w, "# HELP skelrund_cluster_node_consec_fails current consecutive-failure streak\n")
		for _, n := range cl.Nodes() {
			lbl := fmt.Sprintf("{node=%q}", n.Addr)
			up := 0
			if n.Healthy {
				up = 1
			}
			fmt.Fprintf(w, "skelrund_cluster_node_up%s %d\n", lbl, up)
			fmt.Fprintf(w, "skelrund_cluster_node_state{node=%q,state=%q} 1\n", n.Addr, n.State)
			fmt.Fprintf(w, "skelrund_cluster_node_consec_fails%s %d\n", lbl, n.ConsecFails)
			fmt.Fprintf(w, "skelrund_cluster_node_grant%s %d\n", lbl, n.Grant)
			fmt.Fprintf(w, "skelrund_cluster_node_tasks_total%s %d\n", lbl, n.Tasks)
			fmt.Fprintf(w, "skelrund_cluster_node_lp%s %d\n", lbl, n.Report.LP)
			fmt.Fprintf(w, "skelrund_cluster_node_active%s %d\n", lbl, n.Report.Active)
			fmt.Fprintf(w, "skelrund_cluster_node_queued%s %d\n", lbl, n.Report.Queued)
		}
	}
	if jn := s.Journal(); jn != nil {
		c := jn.Counters()
		fmt.Fprintf(w, "# HELP skelrund_journal_appends_total journal records written\n")
		fmt.Fprintf(w, "skelrund_journal_appends_total %d\n", c.Appends)
		fmt.Fprintf(w, "# HELP skelrund_journal_fsyncs_total explicit journal syncs\n")
		fmt.Fprintf(w, "skelrund_journal_fsyncs_total %d\n", c.Fsyncs)
		fmt.Fprintf(w, "skelrund_journal_rotations_total %d\n", c.Rotations)
		fmt.Fprintf(w, "skelrund_journal_compactions_total %d\n", c.Compactions)
		fmt.Fprintf(w, "skelrund_journal_torn_total %d\n", c.Torn)
		fmt.Fprintf(w, "skelrund_journal_replayed_total %d\n", c.Replayed)
	}
	counts := s.stateCounts()
	for _, st := range statesInOrder(counts) {
		fmt.Fprintf(w, "skelrund_jobs{state=%q} %d\n", st, counts[st])
	}
	_, _ = perJob.WriteTo(w)
}

// sortedKeys returns a map's keys in order, for deterministic exposition.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// sortTimeline orders records by time, stable across types. It is an
// insertion sort: timelines are mostly ordered already (two pre-sorted
// series merged), where insertion sort is linear.
func sortTimeline(recs []timelineRecord) {
	for i := 1; i < len(recs); i++ {
		for k := i; k > 0 && recs[k].TMS < recs[k-1].TMS; k-- {
			recs[k], recs[k-1] = recs[k-1], recs[k]
		}
	}
}
