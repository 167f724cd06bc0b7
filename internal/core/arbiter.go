package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"skandium/internal/clock"
)

// Member is the per-job face the Arbiter manages: a controller (or a test
// double) that publishes its resource wish and accepts a budget grant. The
// grant is an external LP cap — the member's own controller keeps computing
// its desired/optimal LP from its ADG exactly as in the paper; the arbiter
// only bounds how much of that wish the machine honours.
type Member interface {
	// Demand returns the member's latest resource wish.
	Demand() Demand
	// Grant imposes the arbiter's budget share as an external LP cap.
	Grant(n int)
}

// GrantDecision records one change of a member's budget share, for
// experiment harnesses, the daemon API and debugging.
type GrantDecision struct {
	Time   time.Time
	Job    string
	OldLP  int
	NewLP  int
	Reason string
}

// String renders the decision compactly.
func (d GrantDecision) String() string {
	return fmt.Sprintf("[%v] %s grant %d->%d: %s", d.Time, d.Job, d.OldLP, d.NewLP, d.Reason)
}

// ErrNoCapacity is returned by Admit when every budget unit is already
// committed to a running job (each admitted job needs at least one worker).
var ErrNoCapacity = fmt.Errorf("core: arbiter at capacity")

// maxDecisionLog bounds the grant-decision log: a long-lived (or
// harness-driven) arbiter churns through millions of grants, and an
// unbounded audit trail would be a slow memory leak. The oldest half is
// dropped when the cap is hit; the API serves the recent window.
const maxDecisionLog = 4096

// Arbiter owns a machine-wide LP budget and divides it across the per-job
// autonomic controllers — the fleet-level analogue of the paper's
// asymmetric policy. On every Rebalance each member starts from the LP its
// own controller desires; if the wishes exceed the budget, jobs that are
// meeting their goal (slack) are halved first, and only then are
// goal-missing jobs shrunk, least-severe overshoot first. Increases are
// granted eagerly (a goal-missing job jumps straight to its wish when the
// budget allows), decreases happen in halving steps, mirroring the
// controller's raise-to-optimal / halve-to-decrease asymmetry one level up.
type Arbiter struct {
	budget int
	clk    clock.Clock

	mu      sync.Mutex
	members map[string]*arbEntry
	order   []string // admission order, for deterministic iteration
	weights map[string]int
	log     []GrantDecision
}

type arbEntry struct {
	m      Member
	tenant string
	grant  int
}

// NewArbiter creates an arbiter over a global LP budget (minimum 1). A nil
// clock means the system clock; decisions are stamped with its readings.
func NewArbiter(budget int, clk clock.Clock) *Arbiter {
	if budget < 1 {
		budget = 1
	}
	if clk == nil {
		clk = clock.System
	}
	return &Arbiter{
		budget:  budget,
		clk:     clk,
		members: map[string]*arbEntry{},
		weights: map[string]int{},
	}
}

// SetTenantWeight fixes a tenant's relative weight in the budget division
// (minimum 1; unconfigured tenants weigh 1) and rebalances so the new
// proportions take effect immediately.
func (a *Arbiter) SetTenantWeight(tenant string, w int) {
	if w < 1 {
		w = 1
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.weights[CanonTenant(tenant)] = w
	a.rebalanceLocked("reweighted " + CanonTenant(tenant))
}

// TenantGrants returns the sum of current grants per tenant — the shares
// the fairness invariants are asserted against.
func (a *Arbiter) TenantGrants() map[string]int {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := map[string]int{}
	for _, e := range a.members {
		out[e.tenant] += e.grant
	}
	return out
}

// Budget returns the global LP budget.
func (a *Arbiter) Budget() int { return a.budget }

// Admit adds a member under the given id (default tenant) and rebalances.
// It fails with ErrNoCapacity when the budget cannot guarantee every
// admitted job its minimum of one worker, and with an error on duplicate
// ids. The caller (the daemon) queues submissions that do not fit and
// retries on Release.
func (a *Arbiter) Admit(id string, m Member) error {
	return a.AdmitFor(id, DefaultTenant, m)
}

// AdmitFor admits a member on behalf of a tenant. The tenant tag decides
// which weighted share of the budget the member competes inside; everything
// else matches Admit.
func (a *Arbiter) AdmitFor(id, tenant string, m Member) error {
	if m == nil {
		panic("core: Admit with nil member")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, dup := a.members[id]; dup {
		return fmt.Errorf("core: arbiter already has job %q", id)
	}
	if len(a.members) >= a.budget {
		return ErrNoCapacity
	}
	a.members[id] = &arbEntry{m: m, tenant: CanonTenant(tenant)}
	a.order = append(a.order, id)
	a.rebalanceLocked("admitted " + id)
	return nil
}

// Release removes a member (finished, canceled or evicted) and immediately
// redistributes its budget to the survivors. Unknown ids are a no-op.
func (a *Arbiter) Release(id string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	e, ok := a.members[id]
	if !ok {
		return
	}
	delete(a.members, id)
	for i, oid := range a.order {
		if oid == id {
			a.order = append(a.order[:i], a.order[i+1:]...)
			break
		}
	}
	if e.grant != 0 {
		a.logLocked(GrantDecision{
			Time: a.clk.Now(), Job: id, OldLP: e.grant, NewLP: 0,
			Reason: "released: budget returned",
		})
	}
	a.rebalanceLocked("released " + id)
}

// Members returns the admitted job ids in admission order.
func (a *Arbiter) Members() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]string(nil), a.order...)
}

// Grants returns the current budget share of every admitted member.
func (a *Arbiter) Grants() map[string]int {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]int, len(a.members))
	for id, e := range a.members {
		out[id] = e.grant
	}
	return out
}

// Granted returns the sum of all current grants (always <= Budget).
func (a *Arbiter) Granted() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	total := 0
	for _, e := range a.members {
		total += e.grant
	}
	return total
}

// Decisions returns a copy of the grant-change log.
func (a *Arbiter) Decisions() []GrantDecision {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]GrantDecision(nil), a.log...)
}

// Rebalance re-divides the budget according to the members' current
// demands. The daemon calls it periodically and after QoS changes.
func (a *Arbiter) Rebalance() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.rebalanceLocked("periodic rebalance")
}

// StartTicker rebalances every d on a background goroutine until the
// returned stop function is called. Only meaningful on real-time clocks.
func (a *Arbiter) StartTicker(d time.Duration) (stop func()) {
	if d <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(d)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				a.Rebalance()
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// cand is one member's state during a rebalance round.
type cand struct {
	id        string
	e         *arbEntry
	grant     int
	severe    bool // goal-missing at its current LP
	overshoot time.Duration
}

func (a *Arbiter) rebalanceLocked(why string) {
	if len(a.members) == 0 {
		return
	}
	now := a.clk.Now()
	cands := make([]*cand, 0, len(a.members))
	for _, id := range a.order {
		e := a.members[id]
		d := e.m.Demand()
		des := d.DesiredLP
		if !d.Valid || des < 1 {
			// Until its controller's first analysis (or without a goal) a
			// member's wish is its CurrentLP: for a daemon job, the LP it
			// asked for. A member that names none gets the minimum.
			des = d.CurrentLP
			if des < 1 {
				des = 1
			}
		}
		if des > a.budget {
			des = a.budget
		}
		cands = append(cands, &cand{
			id: id, e: e, grant: des,
			severe:    d.Valid && d.Goal > 0 && d.Overshoot > 0,
			overshoot: d.Overshoot,
		})
	}

	// Level 1: partition the budget across tenants by weighted max-min
	// fairness. Each tenant's floor is one unit per member (the guarantee
	// Admit enforces) and its demand is the sum of its members' wishes, so a
	// lightly-loaded tenant's unused share flows to the hungry ones. Because
	// the shares are computed before severity is even looked at, a tenant
	// full of goal-missing jobs can raid slack *inside* its own share but
	// can never push another tenant below its weighted guarantee.
	groups := make(map[string][]*cand)
	var tenants []string // first-admission order, for deterministic ties
	for _, c := range cands {
		t := c.e.tenant
		if _, seen := groups[t]; !seen {
			tenants = append(tenants, t)
		}
		groups[t] = append(groups[t], c)
	}
	loads := make([]tenantLoad, len(tenants))
	for i, t := range tenants {
		ld := tenantLoad{weight: a.weights[t], floor: len(groups[t])}
		if ld.weight < 1 {
			ld.weight = 1
		}
		for _, c := range groups[t] {
			ld.demand += c.grant
		}
		loads[i] = ld
	}
	shares := fairShares(a.budget, loads)

	// Level 2: inside each tenant, shrink until the wishes fit its share.
	for i, t := range tenants {
		shrinkToFit(groups[t], shares[i])
	}

	// Apply and log changes: all cuts before all raises, so the sum of the
	// caps actually imposed on the pools never exceeds the budget, not even
	// between two Grant calls. Within each group, most severe first.
	sort.SliceStable(cands, func(i, j int) bool {
		di, dj := cands[i].grant < cands[i].e.grant, cands[j].grant < cands[j].e.grant
		if di != dj {
			return di // decreases first
		}
		return cands[i].overshoot > cands[j].overshoot
	})
	for _, c := range cands {
		if c.grant == c.e.grant {
			continue
		}
		old := c.e.grant
		c.e.grant = c.grant
		c.e.m.Grant(c.grant)
		reason := why
		if c.grant < old {
			if c.severe {
				reason += ": shrink goal-missing job (slack exhausted)"
			} else {
				reason += ": halve slack job"
			}
		} else if c.severe {
			reason += ": grant goal-missing job"
		} else {
			reason += ": grant"
		}
		a.logLocked(GrantDecision{
			Time: now, Job: c.id, OldLP: old, NewLP: c.grant, Reason: reason,
		})
	}
}

// logLocked appends a decision, dropping the oldest half at the cap.
// Caller holds a.mu.
func (a *Arbiter) logLocked(d GrantDecision) {
	if len(a.log) >= maxDecisionLog {
		keep := a.log[len(a.log)-maxDecisionLog/2:]
		a.log = append(a.log[:0], keep...)
	}
	a.log = append(a.log, d)
}

// shrinkToFit applies the paper's asymmetric rule one level up until the
// members' tentative grants sum to at most target: it halves the slack
// members first (largest grant first, so comfort pays before need), then the
// goal-missing ones, least severe overshoot first. A cut halves rather than
// zeroes, so every member keeps the one worker admission guarantees, and the
// final cut is clamped to land exactly on the target rather than halving
// below it (the proportionality the overload fairness invariants assert).
func shrinkToFit(cands []*cand, target int) {
	sum := 0
	for _, c := range cands {
		sum += c.grant
	}
	for sum > target {
		var v *cand
		for _, c := range cands { // pass 1: slack members
			if !c.severe && c.grant > 1 && (v == nil || c.grant > v.grant) {
				v = c
			}
		}
		if v == nil {
			for _, c := range cands { // pass 2: least-severe goal-missers
				if c.grant > 1 && (v == nil || c.overshoot < v.overshoot ||
					(c.overshoot == v.overshoot && c.grant > v.grant)) {
					v = c
				}
			}
		}
		if v == nil {
			return // all at the floor of 1
		}
		cut := v.grant / 2 // >= 1: v.grant > 1
		if fit := v.grant - (sum - target); fit > cut {
			cut = fit
		}
		sum -= v.grant - cut
		v.grant = cut
	}
}
