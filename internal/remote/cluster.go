package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"skandium"
	"skandium/internal/clock"
	"skandium/internal/core"
	"skandium/internal/exec"
	"skandium/internal/plan"
)

// NodeEvent reports a worker health-state transition — the coordinator's
// view of the cluster changing shape. The daemon threads these into the
// running remote jobs' event logs. Degradation markers (work drained to the
// local pool) use Addr "local" with From == To.
type NodeEvent struct {
	Addr string
	// From/To are the health states around the transition.
	From, To NodeState
	// Up is kept for the binary view: the node still serves work.
	Up   bool
	Time time.Time
	// Err is the failure that drove a downward transition.
	Err string
	// Cause is the failure category ("refused", "timeout", "http-5xx",
	// "proto", ...) — the classification the old markDown lost.
	Cause string
}

// Config describes the cluster a coordinator manages.
type Config struct {
	// Workers is the static endpoint list ("host:port" or full URLs).
	Workers []string
	// Budget is the cluster-wide LP budget the arbiter divides into
	// per-node grants (default: 4 × workers).
	Budget int
	// ProbeInterval paces the cluster's one tick (default 250ms): each
	// round probes every node, re-divides the grants on the reports just
	// read and wakes the running job's dispatch supervisor. While a job
	// holds the cluster a round cannot move the grants (see node.Demand);
	// between jobs it settles them on the idle reports.
	ProbeInterval time.Duration
	// HTTPTimeout bounds every worker round-trip *attempt* (default 10s);
	// the RPC policy bounds how many attempts are made.
	HTTPTimeout time.Duration
	// RPC tunes the transient-fault retry layer around every dispatch
	// round trip (zero value = 3 attempts, 25ms base, ×2, ±20% jitter).
	RPC RPCPolicy
	// Health tunes the node state machine thresholds (zero value =
	// suspect after 1 failure, down after 3, 2 probation probes, cap 1).
	Health HealthConfig
	// Transport substitutes the HTTP transport of every worker connection
	// (nil = a private clone of the default transport, whose connections
	// Close releases). The seam the chaos.NetInjector plugs into.
	Transport http.RoundTripper
	// NoDegrade disables the local-pool fallback: when healthy capacity
	// collapses mid-job the job fails (the pre-partition-tolerance
	// behaviour) instead of draining the remaining shards locally.
	NoDegrade bool
	// HedgeAfter, when positive, re-enqueues a claimed-but-unfinished task
	// after this stall so a second node can race the straggler — only once
	// every shard of the job is claimed, when a runner still asking for
	// work has idle capacity. Worker-side dedup keeps the hedge harmless
	// when both attempts land on the same node; result consumption is
	// exactly-once either way. Zero disables hedging.
	HedgeAfter time.Duration
	// Clock stamps events and decisions (default system clock).
	Clock clock.Clock
	// OnNodeEvent observes health transitions (may be nil). Called from
	// probe and dispatch goroutines; must not block.
	OnNodeEvent func(NodeEvent)
}

// Cluster is the centralised coordinator: it discovers workers from the
// static endpoint list, health-probes them through a per-node state machine
// (healthy → suspect → down → probation), shards fan-out tasks across the
// serving ones with transient-fault RPC retries, idempotent re-dispatch and
// requeue-on-node-loss, and runs a cluster-wide core.Arbiter over nodes so Σ
// per-node LP grants never exceeds the global budget. When healthy capacity
// collapses mid-job it degrades gracefully: remaining shards drain to a
// local pool instead of failing the job. The node set is fixed at New; the
// lever is each node's grant.
type Cluster struct {
	cfg    Config
	clk    clock.Clock
	arb    *core.Arbiter
	client *http.Client
	rpc    *rpc
	id     string
	nodes  []*node
	// transport is the cluster's own clone of the default transport (nil
	// when Config.Transport was given), so Close can release exactly the
	// connections the cluster opened.
	transport *http.Transport

	stopProbe chan struct{}
	probeWG   sync.WaitGroup
	// pushCtx is the grant pushes' context, canceled by Close through
	// stopPushes; pushWG counts the per-node senders.
	pushCtx    context.Context
	stopPushes context.CancelFunc
	pushWG     sync.WaitGroup
	// probed wakes the running job's dispatch supervisor after each probe
	// round; one slot, because a wake-up that finds one pending adds nothing.
	probed chan struct{}

	evMu    sync.Mutex
	onEvent func(NodeEvent)

	// jobMu serialises remote jobs: a worker holds one program at a time,
	// so the coordinator ships one job's tasks at a time. Concurrent
	// eligible jobs queue here (see DESIGN §11). holding is set while a job
	// holds jobMu; it switches the node demand to the thread cap.
	jobMu   sync.Mutex
	holding atomic.Bool
	jobSeq  atomic.Int64

	poolMu sync.Mutex
	lpool  *exec.Pool

	degraded atomic.Int64 // tasks drained to the local pool
	hedged   atomic.Int64 // straggler tasks re-enqueued for hedging
	hedgeOff atomic.Bool  // brownout: speculative duplicates suspended

	mu     sync.Mutex
	closed bool
}

// node is the coordinator's proxy for one worker endpoint. It is the
// core.Member the cluster arbiter divides the budget over: Demand derives
// from the dispatch state and the last probed report (clamped to the
// probation cap while the node re-earns trust), Grant pushes the share to
// the worker's pool.
type node struct {
	addr string
	c    *Cluster
	hp   *health

	// tmu serialises health-transition side effects (arbiter admission,
	// release, event emission) so concurrent probe/dispatch outcomes can
	// never interleave them out of order.
	tmu      sync.Mutex
	admitted bool

	mu        sync.Mutex
	report    core.NodeReport
	lastErr   string
	lastCause Cause

	grant atomic.Int64
	tasks atomic.Int64

	// pushMu guards the grant sender: pushWant is the latest grant not yet
	// sent (0 = none), pushing marks a sender goroutine running.
	pushMu   sync.Mutex
	pushWant int
	pushing  bool
}

func (n *node) state() NodeState { return n.hp.State() }

// Demand is the node's wish. While a job holds the cluster, a node asks
// for its thread cap — the reported MaxLP, or the whole budget
// when the worker is uncapped: the job being dispatched is the parent's
// contract, so the share is set as the job takes the cluster and no probe
// can move it until the job returns. Outside a job the wish follows the
// last probed report. Only serving nodes are arbiter members, so only they
// are ever asked.
func (n *node) Demand() core.Demand {
	n.mu.Lock()
	rep := n.report
	n.mu.Unlock()
	d := core.NodeDemand(rep)
	if n.c.holding.Load() {
		d.DesiredLP = rep.MaxLP
		if d.DesiredLP < 1 {
			d.DesiredLP = n.c.cfg.Budget
		}
	}
	if n.hp.State() == StateProbation {
		d = core.CapDemand(d, n.hp.cfg.ProbationCap)
	}
	return d
}

func (n *node) Grant(g int) {
	if int64(g) == n.grant.Swap(int64(g)) {
		return
	}
	n.pushLP(g)
}

// pushLP ships a grant to the worker's pool. Asynchronous, because the
// arbiter must never block on a slow node, but ordered: one sender per node
// posts the latest grant, so a raise that follows a shrink can never be
// overtaken by it.
func (n *node) pushLP(g int) {
	n.pushMu.Lock()
	n.pushWant = g
	start := !n.pushing
	n.pushing = true
	n.pushMu.Unlock()
	if start {
		n.c.goPush(n.sendGrants)
	}
}

// goPush runs a grant sender unless the cluster is closed: a push started
// after Close would reopen a connection Close has just released.
func (c *Cluster) goPush(send func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.pushWG.Add(1)
	go func() {
		defer c.pushWG.Done()
		send()
	}()
}

// sendGrants posts the latest pending grant until none is left.
func (n *node) sendGrants() {
	for {
		n.pushMu.Lock()
		g := n.pushWant
		n.pushWant = 0
		n.pushing = g != 0
		n.pushMu.Unlock()
		if g == 0 {
			return
		}
		body, _ := json.Marshal(LPRequest{LP: g})
		req, _ := http.NewRequestWithContext(n.c.pushCtx, http.MethodPost, n.addr+"/lp", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		resp, err := n.c.client.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
}

// NodeStatus is one worker's coordinator-side accounting, exported to
// skelrund's /metrics and /healthz.
type NodeStatus struct {
	Addr    string
	Healthy bool // state == healthy
	State   string
	Grant   int
	Tasks   int64
	// ConsecFails is the current consecutive-failure streak.
	ConsecFails int
	Report      core.NodeReport
	LastErr     string
	// LastCause is the category of the last failure ("" when none).
	LastCause string
}

// New builds a coordinator over the configured workers, probes them once
// synchronously (so callers start with a live view), and starts the probe
// loop.
func New(cfg Config) (*Cluster, error) {
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("remote: no worker endpoints configured")
	}
	if cfg.Budget < 1 {
		cfg.Budget = 4 * len(cfg.Workers)
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 250 * time.Millisecond
	}
	if cfg.HTTPTimeout <= 0 {
		cfg.HTTPTimeout = 10 * time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.System
	}
	var own *http.Transport
	transport := cfg.Transport
	if transport == nil {
		own = http.DefaultTransport.(*http.Transport).Clone()
		transport = own
	}
	client := &http.Client{Timeout: cfg.HTTPTimeout, Transport: transport}
	pushCtx, cancel := context.WithCancel(context.Background())
	c := &Cluster{
		cfg:        cfg,
		clk:        cfg.Clock,
		arb:        core.NewArbiter(cfg.Budget, cfg.Clock),
		client:     client,
		rpc:        newRPC(client, cfg.Clock, cfg.RPC),
		id:         fmt.Sprintf("%x", time.Now().UnixNano()),
		transport:  own,
		stopProbe:  make(chan struct{}),
		pushCtx:    pushCtx,
		stopPushes: cancel,
		probed:     make(chan struct{}, 1),
		onEvent:    cfg.OnNodeEvent,
	}
	for _, addr := range cfg.Workers {
		if len(addr) < 7 || (addr[:7] != "http://" && (len(addr) < 8 || addr[:8] != "https://")) {
			addr = "http://" + addr
		}
		c.nodes = append(c.nodes, &node{addr: addr, c: c, hp: newHealth(cfg.Health)})
	}
	for _, n := range c.nodes {
		c.probeOne(n)
	}
	c.probeWG.Add(1)
	go c.probeLoop()
	return c, nil
}

// Close stops the probe loop, the grant pushes and the degradation pool,
// then closes the cluster's idle worker connections.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	close(c.stopProbe)
	c.probeWG.Wait()
	c.stopPushes()
	c.pushWG.Wait()
	c.poolMu.Lock()
	if c.lpool != nil {
		c.lpool.Close()
		c.lpool = nil
	}
	c.poolMu.Unlock()
	if c.transport != nil {
		c.transport.CloseIdleConnections()
	}
}

func (c *Cluster) probeLoop() {
	defer c.probeWG.Done()
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stopProbe:
			return
		case <-t.C:
			for _, n := range c.nodes {
				c.probeOne(n)
			}
			// The cluster's one tick: divide the budget on the reports just
			// read, then let the running job's supervisor re-evaluate.
			c.arb.Rebalance()
			select {
			case c.probed <- struct{}{}:
			default:
			}
		}
	}
}

// probeOne refreshes one node's report and feeds the state machine. Probes
// are single-attempt on purpose — the probe loop is itself the retry.
func (c *Cluster) probeOne(n *node) {
	resp, err := c.client.Get(n.addr + "/healthz")
	if err != nil {
		c.noteFail(n, ClassifyErr(err), err)
		return
	}
	var h HealthResponse
	err = json.NewDecoder(resp.Body).Decode(&h)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil || !h.OK {
		cause := CauseProto
		if err == nil {
			err = fmt.Errorf("worker reports not-ok")
			cause = CauseServer
		}
		c.noteFail(n, cause, err)
		return
	}
	n.mu.Lock()
	n.report = core.NodeReport{LP: h.LP, Active: h.Active, Queued: h.Queued, MaxLP: h.MaxLP}
	n.mu.Unlock()
	if g := int(n.grant.Load()); g > 0 && h.LP != g {
		// The worker runs off its standing grant: it restarted at its own
		// default LP behind a blip too short to retire the node, or lost a
		// push. Neither the arbiter (grant unchanged) nor the node cache
		// would re-push, so reconcile directly from the probe.
		n.pushLP(g)
	}
	c.noteOK(n)
}

// noteOK records a successful node interaction (probe or dispatch round
// trip): the state machine may promote the node, and a node returning from
// down is re-admitted to the arbiter — under its probation-capped demand.
func (c *Cluster) noteOK(n *node) {
	n.tmu.Lock()
	defer n.tmu.Unlock()
	from, to := n.hp.ok()
	n.mu.Lock()
	n.lastErr, n.lastCause = "", CauseNone
	n.mu.Unlock()
	admit := !n.admitted
	n.admitted = true
	if admit {
		// First contact, or return from down: the grant cache is stale (a
		// restarted worker is back at its own default LP), so forget it —
		// an identical re-grant must not be deduped away.
		n.grant.Store(0)
		_ = c.arb.Admit(n.addr, n)
	}
	if from != to {
		c.emit(NodeEvent{Addr: n.addr, From: from, To: to, Up: to.Serving(), Time: c.clk.Now()})
	}
}

// noteFail records a failed node interaction with its classified cause and
// drives the state machine: enough consecutive failures retire the node
// (released from the arbiter so its share flows to the survivors). Busy
// (429) is flow control, not failure — it never advances the machine.
func (c *Cluster) noteFail(n *node, cause Cause, err error) {
	if cause == CauseBusy {
		return
	}
	n.tmu.Lock()
	defer n.tmu.Unlock()
	from, to := n.hp.fail()
	n.mu.Lock()
	n.lastErr, n.lastCause = err.Error(), cause
	n.mu.Unlock()
	if to == StateDown && n.admitted {
		n.admitted = false
		c.arb.Release(n.addr)
	}
	if from != to {
		c.emit(NodeEvent{Addr: n.addr, From: from, To: to, Up: to.Serving(),
			Time: c.clk.Now(), Err: err.Error(), Cause: cause.String()})
	}
}

func (c *Cluster) emit(ev NodeEvent) {
	c.evMu.Lock()
	fn := c.onEvent
	c.evMu.Unlock()
	if fn != nil {
		fn(ev)
	}
}

// SetOnNodeEvent replaces the health-transition observer. The daemon uses
// it to thread node-loss events into running jobs' event logs.
func (c *Cluster) SetOnNodeEvent(fn func(NodeEvent)) {
	c.evMu.Lock()
	c.onEvent = fn
	c.evMu.Unlock()
}

// LP returns the number of configured nodes, the LP a cluster-routed job
// reports.
func (c *Cluster) LP() int { return len(c.nodes) }

// Budget returns the cluster-wide LP budget.
func (c *Cluster) Budget() int { return c.arb.Budget() }

// Granted returns the sum of current per-node grants (≤ Budget always).
func (c *Cluster) Granted() int { return c.arb.Granted() }

// Degraded returns the number of tasks drained to the local pool because
// cluster capacity collapsed mid-job.
func (c *Cluster) Degraded() int64 { return c.degraded.Load() }

// Hedged returns the number of straggler tasks re-enqueued for hedging.
func (c *Cluster) Hedged() int64 { return c.hedged.Load() }

// Healthy counts nodes currently in the healthy state (suspect and
// probation nodes still serve; see Serving).
func (c *Cluster) Healthy() int {
	h := 0
	for _, n := range c.nodes {
		if n.state() == StateHealthy {
			h++
		}
	}
	return h
}

// Serving counts the nodes the coordinator currently ships work to
// (healthy, suspect or probation).
func (c *Cluster) Serving() int {
	s := 0
	for _, n := range c.nodes {
		if n.state().Serving() {
			s++
		}
	}
	return s
}

// Nodes exports per-node accounting in endpoint order.
func (c *Cluster) Nodes() []NodeStatus {
	out := make([]NodeStatus, len(c.nodes))
	for i, n := range c.nodes {
		st := n.state()
		n.mu.Lock()
		out[i] = NodeStatus{
			Addr:        n.addr,
			Healthy:     st == StateHealthy,
			State:       st.String(),
			Grant:       int(n.grant.Load()),
			Tasks:       n.tasks.Load(),
			ConsecFails: n.hp.ConsecFails(),
			Report:      n.report,
			LastErr:     n.lastErr,
		}
		if n.lastCause != CauseNone {
			out[i].LastCause = n.lastCause.String()
		}
		n.mu.Unlock()
	}
	return out
}

// Shardable returns the program's top-level fan-out step — the unit the
// coordinator shards across nodes — or nil when the program has another
// shape. Farm wraps are transparent (farm(s) ≡ s with replication), so a
// farm-of-map shards exactly like the map itself.
func Shardable(p *plan.Program) *plan.Step {
	st := p.Root()
	for st.Op() == plan.OpWrap {
		st = st.Child(0)
	}
	if st.Op() == plan.OpFanOut {
		return st
	}
	return nil
}

// jobRun is the shared state of one dispatched job: the pending-task queue
// the node runners (and, under degradation, the local runner) pull from,
// and the exactly-once result slots. completed is the consumption guard —
// however many times a task is dispatched (RPC replays, hedges, requeues),
// only the first finisher writes its result and decrements remaining.
type jobRun struct {
	job      string
	preq     ProgramRequest
	encParts []json.RawMessage // wire-encoded fan-out parts
	parts    []any             // decoded originals (local fallback path)
	body     *plan.Program     // fan-out body, for local execution

	pending   chan int
	remaining atomic.Int64
	completed []atomic.Bool
	claimedAt []atomic.Int64 // unix-nano claim stamps, 0 = unclaimed
	hedgeOnce []atomic.Bool

	results  []json.RawMessage // remote results, wire form
	localRes []any             // local results, decoded form
	isLocal  []bool            // guarded by the completed CAS

	done      chan struct{}
	closeDone sync.Once
	failure   atomic.Pointer[taskError]
}

func newJobRun(job string, preq ProgramRequest, encParts []json.RawMessage, parts []any, body *plan.Program) *jobRun {
	jr := &jobRun{
		job:      job,
		preq:     preq,
		encParts: encParts,
		parts:    parts,
		body:     body,
		// Generous capacity: a seq can transiently have a few copies in
		// flight (owner requeue + hedge), and sends must never block a
		// runner into deadlock.
		pending:   make(chan int, 4*len(encParts)+8),
		completed: make([]atomic.Bool, len(encParts)),
		claimedAt: make([]atomic.Int64, len(encParts)),
		hedgeOnce: make([]atomic.Bool, len(encParts)),
		results:   make([]json.RawMessage, len(encParts)),
		localRes:  make([]any, len(encParts)),
		isLocal:   make([]bool, len(encParts)),
		done:      make(chan struct{}),
	}
	jr.remaining.Store(int64(len(encParts)))
	for i := range encParts {
		jr.pending <- i
	}
	return jr
}

func (jr *jobRun) finish() { jr.closeDone.Do(func() { close(jr.done) }) }

// fail records a deterministic task failure and resolves the run.
func (jr *jobRun) fail(seq int, msg string) {
	jr.failure.CompareAndSwap(nil, &taskError{seq: seq, msg: msg})
	jr.finish()
}

// completeRemote consumes one worker result exactly once; duplicate
// completions (hedge losers, replays) are dropped.
func (jr *jobRun) completeRemote(seq int, raw json.RawMessage) bool {
	if !jr.completed[seq].CompareAndSwap(false, true) {
		return false
	}
	jr.results[seq] = raw
	jr.claimedAt[seq].Store(0)
	if jr.remaining.Add(-1) == 0 {
		jr.finish()
	}
	return true
}

// completeLocal consumes one locally-computed result exactly once.
func (jr *jobRun) completeLocal(seq int, res any) bool {
	if !jr.completed[seq].CompareAndSwap(false, true) {
		return false
	}
	jr.localRes[seq] = res
	jr.isLocal[seq] = true
	jr.claimedAt[seq].Store(0)
	if jr.remaining.Add(-1) == 0 {
		jr.finish()
	}
	return true
}

// requeue puts a claimed-but-unfinished seq back on the queue.
func (jr *jobRun) requeue(seq int) {
	jr.claimedAt[seq].Store(0)
	if jr.completed[seq].Load() {
		return
	}
	jr.pending <- seq
}

// Run executes one eligible blueprint job on the cluster: split locally,
// ship encoded parts to serving workers (each resolving the program by
// registry name), collect per-part results with transient-fault retries,
// idempotent re-dispatch and requeue-on-node-loss, merge locally. When the
// cluster browns out the remaining shards drain to a local pool. It blocks
// until the job resolves.
func (c *Cluster) Run(blueprint string, params skandium.Params) (any, error) {
	return c.RunAs("", blueprint, params)
}

// RunAs is Run with the submitting tenant threaded into the dispatch, so
// per-worker logs and metrics can attribute the load.
func (c *Cluster) RunAs(tenant, blueprint string, params skandium.Params) (any, error) {
	c.jobMu.Lock()
	defer c.jobMu.Unlock()
	// The job takes the cluster: every node asks for its cap from now until
	// the job returns, and the raise happens here, so the first batch is
	// already grant-sized.
	c.holding.Store(true)
	defer c.holding.Store(false)
	c.arb.Rebalance()

	bp, ok := skandium.LookupBlueprint(blueprint)
	if !ok {
		return nil, fmt.Errorf("remote: unknown blueprint %q", blueprint)
	}
	if bp.Remote == nil {
		return nil, fmt.Errorf("remote: blueprint %q is not cluster-eligible: no remote codec", blueprint)
	}
	if params == nil {
		params = skandium.Params{}
	}
	runner, err := bp.Build(params)
	if err != nil {
		return nil, fmt.Errorf("remote: build %s: %w", blueprint, err)
	}
	prog, err := plan.Of(runner.Node())
	if err != nil {
		return nil, fmt.Errorf("remote: compile %s: %w", blueprint, err)
	}
	fan := Shardable(prog)
	if fan == nil {
		return nil, fmt.Errorf("remote: %s is not shardable: program root is %s, not a fan-out", blueprint, prog.Root().Op())
	}
	body, err := plan.Of(fan.Child(0).Node())
	if err != nil {
		return nil, fmt.Errorf("remote: compile fan-out body: %w", err)
	}

	parts, err := fan.Split().CallSplit(runner.Input())
	if err != nil {
		return nil, fmt.Errorf("remote: split: %w", err)
	}
	raws := make([]json.RawMessage, len(parts))
	for i, p := range parts {
		if raws[i], err = bp.Remote.EncodePart(p); err != nil {
			return nil, fmt.Errorf("remote: encode part %d: %w", i, err)
		}
	}

	job := fmt.Sprintf("%s-%d", c.id, c.jobSeq.Add(1))
	preq := ProgramRequest{Blueprint: blueprint, Params: params, Step: fan.Index(), Job: job, Tenant: tenant}
	jr := newJobRun(job, preq, raws, parts, body)
	if err := c.dispatch(jr); err != nil {
		return nil, err
	}

	vals := make([]any, len(jr.results))
	for i := range jr.results {
		if jr.isLocal[i] {
			vals[i] = jr.localRes[i]
			continue
		}
		if vals[i], err = bp.Remote.DecodeResult(jr.results[i]); err != nil {
			return nil, fmt.Errorf("remote: decode result %d: %w", i, err)
		}
	}
	return fan.Merge().CallMerge(vals)
}

// taskError is a deterministic per-task failure (the muscle itself
// errored). It fails the job — requeueing would re-fail forever on another
// node.
type taskError struct {
	seq int
	msg string
}

func (e *taskError) Error() string {
	return fmt.Sprintf("remote: task %d failed on worker: %s", e.seq, e.msg)
}

// runnerExit tells the dispatch supervisor why a node runner retired.
type runnerExit struct {
	n *node
	// refused marks a deterministic program-load refusal (registry drift):
	// the node is healthy but cannot serve this job.
	refused bool
	err     error
}

// dispatch shards the job over the serving nodes: one runner goroutine per
// node pulls tasks from the shared queue in grant-sized batches. A
// supervisor loop, woken by runner exits and by each probe round,
// relaunches runners on nodes that recover mid-job (probation
// re-admission), hedges stragglers once every shard is claimed, and — when
// serving capacity drops below the threshold — drains the remaining tasks
// to the local pool instead of failing the job.
func (c *Cluster) dispatch(jr *jobRun) error {
	if len(jr.encParts) == 0 {
		jr.finish()
		return nil
	}

	exits := make(chan runnerExit, len(c.nodes)+1)
	running := map[string]bool{}  // addr → runner active
	refused := map[string]error{} // addr → deterministic program refusal
	localStarted := false

	startLocal := func() {
		if localStarted || c.cfg.NoDegrade {
			return
		}
		localStarted = true
		c.emit(NodeEvent{Addr: "local", From: StateHealthy, To: StateHealthy,
			Up: true, Time: c.clk.Now(), Cause: "degrade"})
		go c.localRunner(jr)
	}
	launch := func(n *node) {
		if running[n.addr] || refused[n.addr] != nil || !n.state().Serving() {
			return
		}
		running[n.addr] = true
		go func() { exits <- c.nodeRunner(n, jr) }()
	}
	for _, n := range c.nodes {
		launch(n)
	}
	if len(running) == 0 {
		if c.cfg.NoDegrade {
			return fmt.Errorf("remote: no serving workers")
		}
		startLocal()
	}

	for {
		select {
		case <-jr.done:
			if f := jr.failure.Load(); f != nil {
				return f
			}
			return nil
		case ex := <-exits:
			delete(running, ex.n.addr)
			if ex.refused {
				refused[ex.n.addr] = ex.err
			}
		case <-c.probed:
		}

		// Re-evaluate the fleet: relaunch runners on nodes that recovered,
		// and decide whether to degrade locally.
		serving := 0
		for _, n := range c.nodes {
			if n.state().Serving() && refused[n.addr] == nil {
				serving++
			}
			launch(n)
		}
		if len(refused) == len(c.nodes) && len(running) == 0 && !localStarted {
			// Every worker deterministically refused the program: the job
			// cannot run remotely, and locally only if degradation is on.
			if c.cfg.NoDegrade {
				for _, err := range refused {
					return fmt.Errorf("remote: all workers refused the program: %w", err)
				}
			}
			startLocal()
		}
		// When no node serves any more, the local pool joins the dispatch
		// as one more consumer.
		if serving == 0 {
			if !c.cfg.NoDegrade {
				startLocal()
			} else if len(running) == 0 {
				return fmt.Errorf("remote: all workers lost with %d tasks unfinished", jr.remaining.Load())
			}
		}
		if c.cfg.HedgeAfter > 0 && !c.hedgeOff.Load() {
			c.hedgeStragglers(jr)
		}
	}
}

// SetHedging suspends (false) or resumes (true) straggler hedging at
// runtime. The daemon turns it off while browned out: a speculative
// duplicate is optional work, and optional work is the first load shed
// under sustained overload.
func (c *Cluster) SetHedging(on bool) { c.hedgeOff.Store(!on) }

// hedgeStragglers re-enqueues tasks that have been claimed longer than
// HedgeAfter, once each, when the job's pending queue is drained — every
// shard is claimed, so a runner still waiting for work has idle capacity.
// A second node races the straggler, and the exactly-once completion guard
// discards whichever copy loses. (Grant slack is no gate: during a job
// every node asks for its cap, so a cluster whose caps cover the budget
// never has any.)
func (c *Cluster) hedgeStragglers(jr *jobRun) {
	if len(jr.pending) > 0 {
		return
	}
	now := c.clk.Now().UnixNano()
	horizon := c.cfg.HedgeAfter.Nanoseconds()
	for i := range jr.claimedAt {
		ts := jr.claimedAt[i].Load()
		if ts == 0 || now-ts < horizon || jr.completed[i].Load() {
			continue
		}
		if !jr.hedgeOnce[i].CompareAndSwap(false, true) {
			continue
		}
		select {
		case jr.pending <- i:
			c.hedged.Add(1)
		default:
			jr.hedgeOnce[i].Store(false)
		}
	}
}

// localLP is the parallelism of the degradation pool.
const localLP = 4

// localPool lazily builds the degradation pool.
func (c *Cluster) localPool() *exec.Pool {
	c.poolMu.Lock()
	defer c.poolMu.Unlock()
	if c.lpool == nil {
		c.lpool = exec.NewPool(c.clk, localLP, 0)
	}
	return c.lpool
}

// localRunner drains pending tasks on the local pool: the graceful
// degradation path when cluster capacity collapses mid-job. It is one more
// consumer of the shared queue, so surviving nodes and the local pool race
// for the remainder and the exactly-once guard arbitrates.
func (c *Cluster) localRunner(jr *jobRun) {
	pool := c.localPool()
	sem := make(chan struct{}, localLP)
	for {
		select {
		case <-jr.done:
			return
		case i := <-jr.pending:
			if jr.completed[i].Load() {
				continue
			}
			jr.claimedAt[i].Store(c.clk.Now().UnixNano())
			sem <- struct{}{}
			go func(i int) {
				defer func() { <-sem }()
				res, err := exec.NewRoot(pool, nil, c.clk).StartProgram(jr.body, jr.parts[i]).Get()
				if err != nil {
					jr.fail(i, err.Error())
					return
				}
				if jr.completeLocal(i, res) {
					c.degraded.Add(1)
				}
			}(i)
		}
	}
}

// nodeRunner serves one node for one job: program load, then grant-sized
// batches pulled from the shared queue until the job resolves or the node
// fails terminally. Transient RPC faults are absorbed by the retry layer;
// an exhausted retry budget requeues the in-flight batch, advances the
// node's health state machine, and retires the runner — the supervisor
// relaunches it if the node recovers.
func (c *Cluster) nodeRunner(n *node, jr *jobRun) runnerExit {
	if err := c.postProgram(n, jr.preq); err != nil {
		cause := CauseOf(err)
		if cause == CauseClient {
			return runnerExit{n: n, refused: true, err: err}
		}
		if cause != CauseBusy {
			c.noteFail(n, cause, err)
		}
		return runnerExit{n: n, err: err}
	}
	for {
		// Pre-size the batch to the grant (capped by the job's shard count):
		// the fan-out cardinality is known up front, so the NDJSON batch
		// never regrows while it fills.
		batchCap := int(n.grant.Load())
		if batchCap < 1 {
			batchCap = 1
		}
		if w := len(jr.encParts); w < batchCap {
			batchCap = w
		}
		batch := make([]int, 0, batchCap)
		select {
		case <-jr.done:
			return runnerExit{n: n}
		case i := <-jr.pending:
			if jr.completed[i].Load() {
				continue
			}
			batch = append(batch, i)
		}
		// Greedily widen the batch up to the node's grant: the arbiter's
		// per-node LP is the pacing signal for how much work to ship.
		limit := int(n.grant.Load())
		if limit < 1 {
			limit = 1
		}
	fill:
		for len(batch) < limit {
			select {
			case i := <-jr.pending:
				if jr.completed[i].Load() {
					continue
				}
				batch = append(batch, i)
			default:
				break fill
			}
		}
		now := c.clk.Now().UnixNano()
		for _, i := range batch {
			jr.claimedAt[i].Store(now)
		}

		resps, err := c.postTasks(n, jr, batch)
		if err != nil {
			for _, i := range batch {
				jr.requeue(i)
			}
			var re *RPCError
			if errors.As(err, &re) && re.Status == http.StatusConflict {
				// The worker restarted (or fenced a stale epoch) and lost
				// the program: re-load and keep serving.
				if perr := c.postProgram(n, jr.preq); perr == nil {
					continue
				}
			}
			cause := CauseOf(err)
			if cause == CauseBusy {
				// Admission shed: honor the worker's pacing hint, then keep
				// serving — saturation is not sickness.
				clock.Sleep(c.clk, busyHint(err))
				continue
			}
			c.noteFail(n, cause, err)
			return runnerExit{n: n, err: err}
		}
		// A complete reply is health evidence: feed the state machine so a
		// suspect node that keeps serving climbs back to healthy.
		c.noteOK(n)
		for _, i := range batch {
			resp := resps[i]
			if resp.Error != "" {
				jr.fail(i, resp.Error)
				return runnerExit{n: n}
			}
			if jr.completeRemote(i, resp.Result) {
				n.tasks.Add(1)
			}
		}
	}
}

// busyHint extracts the Retry-After pacing from a terminal busy error.
func busyHint(err error) time.Duration {
	var be *busyError
	if errors.As(err, &be) && be.retryAfter > 0 {
		return be.retryAfter
	}
	return 100 * time.Millisecond
}

// postProgram loads the job's program onto a worker through the
// transient-fault RPC layer.
func (c *Cluster) postProgram(n *node, preq ProgramRequest) error {
	body, err := json.Marshal(preq)
	if err != nil {
		return err
	}
	return c.rpc.post("POST /program", n.addr+"/program", "application/json", body, func(r io.Reader) error {
		var pr ProgramResponse
		if err := json.NewDecoder(r).Decode(&pr); err != nil {
			return fmt.Errorf("program response: %w", err)
		}
		if !pr.OK {
			return fmt.Errorf("program load refused: %s", pr.Error)
		}
		return nil
	})
}

// postTasks ships one NDJSON batch through the transient-fault RPC layer
// and returns the responses keyed by sequence number. A short or malformed
// reply classifies as a torn (proto) fault and is retried against the same
// node — the worker's dedup slots make the replay execute nothing twice.
// Results are only ever consumed from complete replies.
func (c *Cluster) postTasks(n *node, jr *jobRun, batch []int) (map[int]TaskResponse, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, i := range batch {
		if err := enc.Encode(TaskRequest{Seq: i, Part: jr.encParts[i], Job: jr.job}); err != nil {
			return nil, err
		}
	}
	var out map[int]TaskResponse
	err := c.rpc.post("POST /tasks", n.addr+"/tasks", "application/x-ndjson", buf.Bytes(), func(r io.Reader) error {
		m := make(map[int]TaskResponse, len(batch))
		dec := json.NewDecoder(r)
		for {
			var tr TaskResponse
			if err := dec.Decode(&tr); err != nil {
				if err == io.EOF {
					break
				}
				return fmt.Errorf("task response: %w", err)
			}
			if tr.Seq < 0 {
				return fmt.Errorf("worker rejected batch: %s", tr.Error)
			}
			m[tr.Seq] = tr
		}
		for _, i := range batch {
			if _, ok := m[i]; !ok {
				return fmt.Errorf("worker reply missing task %d", i)
			}
		}
		out = m
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
