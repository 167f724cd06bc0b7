package server

import (
	"math/rand"
	"sync"
	"time"

	"skandium/internal/clock"
	"skandium/internal/core"
	"skandium/internal/metrics"
)

// admissionConfig tunes the multi-tenant admission ladder.
type admissionConfig struct {
	// QueueMax bounds the wait queue; 0 disables the ladder (everything
	// admits, as an unbounded queue always did).
	QueueMax int
	// Tenants maps tenant names to their weights (unlisted tenants weigh 1).
	Tenants map[string]int
	// BrownoutAfter is how long queue pressure must stay above HighWater
	// before the server browns out (default 1s). BrownoutExit is how long
	// pressure must stay below LowWater before it recovers (default 2s).
	BrownoutAfter time.Duration
	BrownoutExit  time.Duration
	// HighWater/LowWater are the queue-fill hysteresis thresholds
	// (defaults 0.75 and 0.25).
	HighWater float64
	LowWater  float64
	// Seed makes the probabilistic shed and the Retry-After jitter
	// reproducible (default 1).
	Seed  int64
	Clock clock.Clock
	// OnBrownout, when set, observes brownout transitions. It is invoked
	// with no admission lock held, but only from decide/poll call sites —
	// never from the counter-only bookkeeping hooks — so a server callback
	// may take the server lock.
	OnBrownout func(on bool, at time.Time)
}

// verdict is the admission ladder's ruling on one submission.
type verdict struct {
	admit bool
	// guaranteed marks rung-1 admissions: the tenant was below its weighted
	// queue quota and the priority non-negative, so admission was
	// unconditional. Such submissions are never shed — the invariant the
	// overload harness asserts.
	guaranteed bool
	reason     string // shed reason (metrics.Shed*) when !admit
	queued     int    // total queue depth at decision time
	retryAfter time.Duration
}

// brownoutChange is one hysteresis transition, delivered to OnBrownout.
type brownoutChange struct {
	on bool
	at time.Time
}

// drainCap bounds the completion-stamp ring the drain rate is derived
// from; drainWindow is how far back it looks.
const (
	drainCap    = 512
	drainWindow = 5 * time.Second
)

// admission is the priority-aware, tenant-fair front door that replaced the
// flat queue-max shed. It rules on every submission via a three-rung
// ladder:
//
//  1. guaranteed — the tenant is below its weighted share of the queue and
//     the submission is not low-priority: admit unconditionally (the queue
//     may stretch past QueueMax for guaranteed traffic; the stretch is
//     bounded by the quota sum);
//  2. weighted probabilistic shed — optional work is shed with probability
//     fill²/weight (doubled for low priority, zero for high) so pressure
//     lands on heavy and low-priority tenants first and ramps smoothly
//     instead of cliffing at the bound;
//  3. hard shed — the queue is full (or the server browned out): 429 with
//     a Retry-After derived from the observed drain rate.
//
// Brownout is a hysteresis detector over the same event stream: queue fill
// sustained above HighWater for BrownoutAfter trips it, sustained below
// LowWater for BrownoutExit clears it. While browned out, all optional
// (over-quota or low-priority) work is shed deterministically and the
// server disables cluster hedging — optional duplicates are the first
// ballast overboard.
//
// admission is a leaf lock: it never calls back under its mutex, so its
// methods are safe from any server path.
type admission struct {
	cfg admissionConfig

	mu          sync.Mutex
	rng         *rand.Rand
	weights     map[string]int // every tenant seen, configured or not
	weightSum   int
	queued      map[string]int
	queuedTotal int

	brownedOut    bool
	brownouts     uint64 // total on-transitions
	pressureSince time.Time
	calmSince     time.Time

	// sheds counts every refused submission by tenant and reason: the
	// ladder's own rulings and the server's draining and goal-infeasible
	// refusals (see refused).
	sheds map[string]map[string]uint64

	completions [drainCap]time.Time
	chead, clen int
}

func newAdmission(cfg admissionConfig) *admission {
	if cfg.BrownoutAfter <= 0 {
		cfg.BrownoutAfter = time.Second
	}
	if cfg.BrownoutExit <= 0 {
		cfg.BrownoutExit = 2 * time.Second
	}
	if cfg.HighWater <= 0 {
		cfg.HighWater = 0.75
	}
	if cfg.LowWater <= 0 {
		cfg.LowWater = 0.25
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.System
	}
	a := &admission{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		weights: map[string]int{},
		queued:  map[string]int{},
		sheds:   map[string]map[string]uint64{},
	}
	for t, w := range cfg.Tenants {
		if w < 1 {
			w = 1
		}
		a.weights[core.CanonTenant(t)] = w
		a.weightSum += w
	}
	return a
}

// weightLocked returns (registering if new) a tenant's weight.
func (a *admission) weightLocked(tenant string) int {
	w, ok := a.weights[tenant]
	if !ok {
		w = 1
		a.weights[tenant] = w
		a.weightSum += w
	}
	return w
}

// quotaLocked is a tenant's guaranteed share of the queue: its weighted
// fraction of QueueMax, floored at one slot so every tenant can always get
// at least one job in.
func (a *admission) quotaLocked(w int) int {
	q := a.cfg.QueueMax * w / a.weightSum
	if q < 1 {
		q = 1
	}
	return q
}

// decide rules on one submission and reserves its queue slot when admitted
// (release it with started or dequeued). Brownout transitions triggered by
// this observation are delivered to OnBrownout before decide returns.
func (a *admission) decide(tenant string, priority int) verdict {
	now := a.cfg.Clock.Now()
	a.mu.Lock()
	trs := a.observeLocked(now)
	v := a.decideLocked(tenant, priority, now)
	a.mu.Unlock()
	a.fire(trs)
	return v
}

func (a *admission) decideLocked(tenant string, priority int, now time.Time) verdict {
	w := a.weightLocked(tenant)
	if a.cfg.QueueMax <= 0 {
		// Unbounded queue: no ladder, everything is guaranteed.
		a.queued[tenant]++
		a.queuedTotal++
		return verdict{admit: true, guaranteed: priority >= 0, queued: a.queuedTotal}
	}
	if priority >= 0 && a.queued[tenant] < a.quotaLocked(w) {
		a.queued[tenant]++
		a.queuedTotal++
		return verdict{admit: true, guaranteed: true, queued: a.queuedTotal}
	}

	// Over quota or low priority: this is optional work, the shed ladder
	// applies.
	shed := func(reason string) verdict {
		a.countShedLocked(tenant, reason)
		return verdict{
			reason: reason, queued: a.queuedTotal,
			retryAfter: a.retryAfterLocked(now),
		}
	}
	if a.queuedTotal >= a.cfg.QueueMax {
		return shed(metrics.ShedQueueFull)
	}
	if a.brownedOut {
		return shed(metrics.ShedBrownout)
	}
	fill := float64(a.queuedTotal) / float64(a.cfg.QueueMax)
	var pshed float64
	switch {
	case priority > 0:
		pshed = 0 // high priority rides until the hard wall
	case priority < 0:
		pshed = 2 * fill * fill / float64(w)
	default:
		pshed = fill * fill / float64(w)
	}
	if pshed > 0 && a.rng.Float64() < pshed {
		return shed(metrics.ShedPressure)
	}
	a.queued[tenant]++
	a.queuedTotal++
	return verdict{admit: true, queued: a.queuedTotal}
}

// entitled reports whether a submission would ride the guaranteed rung
// right now. The overload harness probes it immediately before decide to
// verify guaranteed traffic is never shed.
func (a *admission) entitled(tenant string, priority int) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if priority < 0 {
		return false
	}
	if a.cfg.QueueMax <= 0 {
		return true
	}
	return a.queued[tenant] < a.quotaLocked(a.weightLocked(tenant))
}

// started releases a tenant's queue slot: the job moved from the wait
// queue to a budget grant. Counter-only — never fires OnBrownout — so it
// is safe under the server lock.
func (a *admission) started(tenant string) {
	a.mu.Lock()
	if a.queued[tenant] > 0 {
		a.queued[tenant]--
		a.queuedTotal--
	}
	a.mu.Unlock()
}

// dequeued releases a queue slot without a start (cancel, drain race).
func (a *admission) dequeued(tenant string) { a.started(tenant) }

// refused counts a submission the server refused outside the ladder
// (draining, goal infeasible). Counter-only.
func (a *admission) refused(tenant, reason string) {
	a.mu.Lock()
	a.countShedLocked(tenant, reason)
	a.mu.Unlock()
}

func (a *admission) countShedLocked(tenant, reason string) {
	ts := a.sheds[tenant]
	if ts == nil {
		ts = map[string]uint64{}
		a.sheds[tenant] = ts
	}
	ts[reason]++
}

// enqueued reserves a queue slot without a decision — journal recovery
// re-queues jobs that were admitted before the crash. Counter-only.
func (a *admission) enqueued(tenant string) {
	a.mu.Lock()
	a.weightLocked(tenant)
	a.queued[tenant]++
	a.queuedTotal++
	a.mu.Unlock()
}

// finished records a job completion for the drain-rate estimate.
func (a *admission) finished(now time.Time) {
	a.mu.Lock()
	if a.clen < drainCap {
		a.completions[(a.chead+a.clen)%drainCap] = now
		a.clen++
	} else {
		a.completions[a.chead] = now
		a.chead = (a.chead + 1) % drainCap
	}
	a.mu.Unlock()
}

// poll re-evaluates the brownout hysteresis without a submission — the
// health endpoint and the overload harness drive exit detection with it
// when traffic has gone quiet.
func (a *admission) poll(now time.Time) {
	a.mu.Lock()
	trs := a.observeLocked(now)
	a.mu.Unlock()
	a.fire(trs)
}

// observeLocked advances the hysteresis detector on the current queue fill
// and returns the transitions to deliver (after unlocking).
func (a *admission) observeLocked(now time.Time) []brownoutChange {
	if a.cfg.QueueMax <= 0 {
		return nil
	}
	fill := float64(a.queuedTotal) / float64(a.cfg.QueueMax)
	var trs []brownoutChange
	switch {
	case fill >= a.cfg.HighWater:
		a.calmSince = time.Time{}
		if a.pressureSince.IsZero() {
			a.pressureSince = now
		}
		if !a.brownedOut && now.Sub(a.pressureSince) >= a.cfg.BrownoutAfter {
			a.brownedOut = true
			a.brownouts++
			trs = append(trs, brownoutChange{on: true, at: now})
		}
	case fill <= a.cfg.LowWater:
		a.pressureSince = time.Time{}
		if a.calmSince.IsZero() {
			a.calmSince = now
		}
		if a.brownedOut && now.Sub(a.calmSince) >= a.cfg.BrownoutExit {
			a.brownedOut = false
			trs = append(trs, brownoutChange{on: false, at: now})
		}
	default:
		// Between the water marks neither timer runs: the current state
		// holds (that is the hysteresis).
		a.pressureSince, a.calmSince = time.Time{}, time.Time{}
	}
	return trs
}

func (a *admission) fire(trs []brownoutChange) {
	if a.cfg.OnBrownout == nil {
		return
	}
	for _, tr := range trs {
		a.cfg.OnBrownout(tr.on, tr.at)
	}
}

// isBrownedOut reports the current hysteresis state (leaf lock; safe under
// the server lock).
func (a *admission) isBrownedOut() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.brownedOut
}

// retryAfter derives the current backoff hint (draining responses).
func (a *admission) retryAfter() time.Duration {
	now := a.cfg.Clock.Now()
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.retryAfterLocked(now)
}

// retryAfterLocked estimates when a shed client should try again from the
// observed drain rate: queue depth plus one, divided by recent completions
// per second, clamped to [1s, 60s] and jittered ±20% so a shed burst does
// not come back as a synchronized retry burst.
func (a *admission) retryAfterLocked(now time.Time) time.Duration {
	for a.clen > 0 && now.Sub(a.completions[a.chead]) > drainWindow {
		a.chead = (a.chead + 1) % drainCap
		a.clen--
	}
	ra := 5 * time.Second // no drain observed: a blind but bounded default
	if a.clen > 0 {
		window := now.Sub(a.completions[a.chead])
		if window < time.Second {
			window = time.Second
		}
		rate := float64(a.clen) / window.Seconds()
		ra = time.Duration(float64(a.queuedTotal+1) / rate * float64(time.Second))
	}
	ra = time.Duration(float64(ra) * (0.8 + 0.4*a.rng.Float64()))
	if ra < time.Second {
		ra = time.Second
	}
	if ra > 60*time.Second {
		ra = 60 * time.Second
	}
	return ra
}

// admissionStats is a point-in-time snapshot for /healthz and /metrics.
type admissionStats struct {
	BrownedOut bool
	Brownouts  uint64
	Queued     map[string]int
	Quotas     map[string]int
	Weights    map[string]int
	// Sheds counts refusals by reason, TenantSheds by tenant and reason.
	Sheds       map[string]uint64
	TenantSheds map[string]map[string]uint64
}

func (a *admission) stats() admissionStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := admissionStats{
		BrownedOut:  a.brownedOut,
		Brownouts:   a.brownouts,
		Queued:      make(map[string]int, len(a.weights)),
		Quotas:      make(map[string]int, len(a.weights)),
		Weights:     make(map[string]int, len(a.weights)),
		Sheds:       map[string]uint64{},
		TenantSheds: make(map[string]map[string]uint64, len(a.sheds)),
	}
	for t, ts := range a.sheds {
		m := make(map[string]uint64, len(ts))
		for r, n := range ts {
			m[r] = n
			st.Sheds[r] += n
		}
		st.TenantSheds[t] = m
	}
	for t, w := range a.weights {
		st.Weights[t] = w
		st.Queued[t] = a.queued[t]
		if a.cfg.QueueMax > 0 {
			st.Quotas[t] = a.quotaLocked(w)
		}
	}
	return st
}
