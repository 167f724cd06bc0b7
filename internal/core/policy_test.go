package core

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"skandium/internal/clock"
)

// TestExplicitPaperPolicyMatchesDefault: the default (nil Policy), the
// registry names and an explicit Config{Policy: PaperPolicy{...}} drive the
// controller to identical decision logs on the Fig. 1 snapshot.
func TestExplicitPaperPolicyMatchesDefault(t *testing.T) {
	run := func(cfg Config) []Decision {
		s := newFig1Setup()
		s.replayUntil70()
		lever := &fakeLever{lp: 2}
		ctl := NewController(cfg, s.outer, lever, s.est, s.tr, clock.NewVirtual(clock.Epoch))
		ctl.SetStart(clock.Epoch)
		ctl.Analyze(clock.Epoch.Add(u(70)))
		ctl.Analyze(clock.Epoch.Add(u(80)))
		return ctl.Decisions()
	}
	def := run(Config{WCTGoal: u(100)})
	if len(def) == 0 {
		t.Fatal("default policy made no decision on the Fig. 1 snapshot")
	}
	if explicit := run(Config{WCTGoal: u(100), Policy: PaperPolicy{}}); !reflect.DeepEqual(def, explicit) {
		t.Fatalf("decisions diverge\ndefault:  %v\nexplicit: %v", def, explicit)
	}
	for _, tc := range []struct {
		name string
		inc  IncreasePolicy
		dec  DecreasePolicy
	}{
		{"paper", IncreaseOptimal, DecreaseHalve},
		{"paper-minimal", IncreaseMinimal, DecreaseHalve},
		{"paper-nodecrease", IncreaseOptimal, DecreaseNone},
		{"paper-exact", IncreaseOptimal, DecreaseExact},
	} {
		named, err := NewPolicy(tc.name, 0)
		if err != nil {
			t.Fatal(err)
		}
		byName := run(Config{WCTGoal: u(100), Policy: named})
		viaPolicy := run(Config{WCTGoal: u(100), Policy: PaperPolicy{Increase: tc.inc, Decrease: tc.dec}})
		if !reflect.DeepEqual(byName, viaPolicy) {
			t.Fatalf("%s: decisions diverge\nby name:    %v\nvia Policy: %v",
				tc.name, byName, viaPolicy)
		}
	}
}

// TestDecreaseHoldSequenceClamp is the regression test for the virtual-time
// hold bug: with AnalysisInterval zero the virtual clock can jump straight
// past the hold window in one event batch, so a wall-time-only hold damps
// nothing — the very first analysis after the increase could halve. The
// hold is now clamped by decision sequence too: the first completed
// analysis after an increase is always damped, however far the clock
// jumped; only the next one may decrease.
func TestDecreaseHoldSequenceClamp(t *testing.T) {
	s := newFig1Setup()
	s.replayUntil70()
	lever := &fakeLever{lp: 2}
	ctl := NewController(Config{WCTGoal: u(100), Policy: PaperPolicy{Increase: IncreaseOptimal},
		DecreaseHold: u(50)},
		s.outer, lever, s.est, s.tr, clock.NewVirtual(clock.Epoch))
	ctl.SetStart(clock.Epoch)
	// Increase at t=70 (2 -> 3).
	ctl.Analyze(clock.Epoch.Add(u(70)))
	if lever.LP() != 3 {
		t.Fatalf("LP = %d, want 3", lever.LP())
	}
	// Manual raise plus a loosened goal make a halving attractive.
	lever.SetLP(8)
	ctl.cfg.WCTGoal = u(500)
	// The clock jumps past the whole hold window (70+50=120) in one go:
	// the first analysis since the increase still must not decrease.
	if !ctl.Analyze(clock.Epoch.Add(u(200))) {
		t.Fatal("analysis did not run")
	}
	if lever.LP() != 8 {
		t.Fatalf("hold skipped by clock jump: LP = %d, want 8", lever.LP())
	}
	// The second analysis — even at the same virtual instant — has one
	// damped analysis behind it and the wall window expired: it may halve.
	ctl.Analyze(clock.Epoch.Add(u(200)))
	if lever.LP() != 4 {
		t.Fatalf("decrease after damped analysis did not halve: LP = %d, want 4", lever.LP())
	}
}

// synthPred builds a deterministic analytic prediction: completion is
// max(span, work/lp) from now.
func synthPred(work, span time.Duration, now time.Time) *Prediction {
	if span <= 0 {
		span = time.Millisecond
	}
	limited := func(lp int) time.Time {
		if lp < 1 {
			lp = 1
		}
		d := work / time.Duration(lp)
		if d < span {
			d = span
		}
		return now.Add(d)
	}
	opt := int((work + span - 1) / span)
	if opt < 1 {
		opt = 1
	}
	return &Prediction{
		LimitedEnd: limited,
		BestEnd:    now.Add(span),
		OptimalLP:  opt,
		MinLP: func(deadline time.Time, ceil int) (int, bool) {
			for lp := 1; lp <= ceil; lp++ {
				if !limited(lp).After(deadline) {
					return lp, true
				}
			}
			return 0, false
		},
	}
}

// driveProposals runs a policy through a fixed synthetic scenario and
// returns its full proposal stream plus the LP trajectory it produced.
func driveProposals(p Policy, steps int) []Proposal {
	const maxLP = 16
	cur := 1
	start := clock.Epoch
	var out []Proposal
	for i := 0; i < steps; i++ {
		now := start.Add(time.Duration(i) * 20 * time.Millisecond)
		work := time.Duration(1500-22*i) * time.Millisecond
		if work < 40*time.Millisecond {
			work = 40 * time.Millisecond
		}
		pred := synthPred(work, 80*time.Millisecond, now)
		prop := p.Observe(pred, Actuation{
			CurLP: cur, MaxLP: maxLP,
			Goal: 600 * time.Millisecond, Start: start, Now: now,
		})
		out = append(out, prop)
		if prop.LP >= 1 {
			cur = prop.LP
			if cur > maxLP {
				cur = maxLP
			}
		}
	}
	return out
}

// TestPolicyProposalStreamsDeterministic: every registered policy produces
// an identical proposal stream when rebuilt with the same seed and driven
// through the same scenario — the property the tournament's reproducible
// league tables rest on. Run under -race in CI.
func TestPolicyProposalStreamsDeterministic(t *testing.T) {
	for _, name := range Policies() {
		a, err := NewPolicy(name, 7)
		if err != nil {
			t.Fatalf("NewPolicy(%q): %v", name, err)
		}
		b, err := NewPolicy(name, 7)
		if err != nil {
			t.Fatalf("NewPolicy(%q): %v", name, err)
		}
		pa := driveProposals(a, 60)
		pb := driveProposals(b, 60)
		if !reflect.DeepEqual(pa, pb) {
			t.Fatalf("policy %q: proposal streams diverge for equal seeds", name)
		}
		for i, pr := range pa {
			if pr.LP > 16 {
				t.Fatalf("policy %q step %d proposes LP %d above the cap", name, i, pr.LP)
			}
		}
	}
}

// TestClonePolicyIndependence: ClonePolicy hands each new controller an
// instance safe to drive concurrently — stateful policies (Cloner) become
// fresh replicas behaving exactly like a newly built policy on the same
// seed, even after the original has accumulated state; stateless ones pass
// through unchanged.
func TestClonePolicyIndependence(t *testing.T) {
	if ClonePolicy(nil) != nil {
		t.Fatal("ClonePolicy(nil) is not nil")
	}
	for _, name := range Policies() {
		orig, err := NewPolicy(name, 11)
		if err != nil {
			t.Fatalf("NewPolicy(%q): %v", name, err)
		}
		_, stateful := orig.(Cloner)
		if clone := ClonePolicy(orig); stateful {
			if clone == orig {
				t.Fatalf("stateful policy %q: clone is the original instance", name)
			}
		} else if clone != orig {
			t.Fatalf("stateless policy %q was replaced by ClonePolicy", name)
		}
		// Drift the original's state, then clone: the clone must still
		// replay the proposal stream of a fresh instance on the same seed.
		driveProposals(orig, 40)
		fresh, _ := NewPolicy(name, 11)
		got := driveProposals(ClonePolicy(orig), 60)
		want := driveProposals(fresh, 60)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("policy %q: clone after use diverges from a fresh instance", name)
		}
	}
}

// TestControllerClampsHeldDemand: even a policy that proposes a decrease
// inside the damping window cannot leak it into the controller's published
// Demand: the controller holds the lever and publishes the held level.
func TestControllerClampsHeldDemand(t *testing.T) {
	s := newFig1Setup()
	s.replayUntil70()
	lever := &fakeLever{lp: 2}
	ctl := NewController(Config{WCTGoal: u(100), DecreaseHold: u(50),
		Policy: undercutPolicy{}},
		s.outer, lever, s.est, s.tr, clock.NewVirtual(clock.Epoch))
	ctl.SetStart(clock.Epoch)
	// First analysis: the rogue policy raises 2 -> 3, opening the hold
	// window. Second analysis, inside the window: the policy proposes LP 1
	// — the controller must publish the held level, not the undercut.
	ctl.Analyze(clock.Epoch.Add(u(70)))
	if lever.LP() != 3 {
		t.Fatalf("LP = %d, want 3", lever.LP())
	}
	if !ctl.Analyze(clock.Epoch.Add(u(80))) {
		t.Fatal("held analysis did not run")
	}
	if d := ctl.Demand(); d.DesiredLP != 3 {
		t.Fatalf("held demand = %d, want clamped to the held LP 3", d.DesiredLP)
	}
}

// undercutPolicy raises LP once and then keeps proposing 1 worker, held
// window or not — a stateless policy that ignores Actuation.Held.
type undercutPolicy struct{}

func (undercutPolicy) Observe(pred *Prediction, act Actuation) Proposal {
	if act.CurLP < 3 {
		return Proposal{LP: 3, Reason: "raise"}
	}
	return Proposal{LP: 1, Reason: "undercut"}
}

// TestPolicyRegistry: the empty name is the paper default, every
// registered name builds, and unknown names fail with the catalogue.
func TestPolicyRegistry(t *testing.T) {
	p, err := NewPolicy("", 1)
	if err != nil || p != (PaperPolicy{}) {
		t.Fatalf("NewPolicy(\"\") = %v, %v; want the paper default", p, err)
	}
	for _, name := range Policies() {
		if p, err := NewPolicy(name, 3); err != nil || p == nil {
			t.Fatalf("NewPolicy(%q) = %v, %v", name, p, err)
		}
	}
	if _, err := NewPolicy("no-such-policy", 1); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestHillClimbReturnsToBestSeen: after observing a feasible LP, a later
// miss jumps straight back to it instead of stepping blindly.
func TestHillClimbReturnsToBestSeen(t *testing.T) {
	h := NewHillClimb(1)
	start := clock.Epoch
	// Feasible at LP 6 (work 400ms / 6 < goal 100ms? no — make it so):
	// work 480ms, span 80ms, goal 100ms: LP 6 gives 80ms <= 100ms. Observe
	// at LP 6 with slack records 6 as best-seen.
	pred := synthPred(480*time.Millisecond, 80*time.Millisecond, start)
	h.Observe(pred, Actuation{CurLP: 6, MaxLP: 16, Goal: 100 * time.Millisecond, Start: start, Now: start})
	// Now at LP 1 the goal is missed: the climber should return to 6.
	prop := h.Observe(pred, Actuation{CurLP: 1, MaxLP: 16, Goal: 100 * time.Millisecond, Start: start, Now: start})
	if prop.LP > 6 {
		t.Fatalf("hillclimb overshot its best-seen LP: proposed %d", prop.LP)
	}
	if prop.LP <= 1 {
		t.Fatalf("hillclimb did not climb on a miss: proposed %d", prop.LP)
	}
}

// TestCostAwarePrefersCheapestSufficientLP: when several LPs meet the goal,
// the cost model picks the cheapest-by-LP·time one.
func TestCostAwarePrefersCheapestSufficientLP(t *testing.T) {
	p := NewCostAware()
	start := clock.Epoch
	// work 1600ms, span 100ms, goal 200ms: LP 8 meets the deadline exactly
	// (200ms); LP 16 is no faster per the span floor but costs double the
	// workers for half the time — the model ties and keeps the smaller LP.
	pred := synthPred(1600*time.Millisecond, 100*time.Millisecond, start)
	prop := p.Observe(pred, Actuation{CurLP: 1, MaxLP: 16, Goal: 200 * time.Millisecond, Start: start, Now: start})
	if prop.LP != 8 {
		t.Fatalf("costaware proposed %d, want 8", prop.LP)
	}
}

// legacyShrinkToFit is the pre-refactor shrink algorithm, transcribed
// verbatim from arbiter.go before the Policy extraction. It is the oracle
// the refactored PaperContract-driven loop must match grant-for-grant.
func legacyShrinkToFit(cands []*cand, target int) {
	sum := 0
	for _, c := range cands {
		sum += c.grant
	}
	for sum > target {
		var victim *cand
		for _, c := range cands { // pass 1: slack jobs
			if c.severe || c.grant <= 1 {
				continue
			}
			if victim == nil || c.grant > victim.grant {
				victim = c
			}
		}
		if victim == nil {
			for _, c := range cands { // pass 2: least-severe goal-missers
				if c.grant <= 1 {
					continue
				}
				if victim == nil || c.overshoot < victim.overshoot ||
					(c.overshoot == victim.overshoot && c.grant > victim.grant) {
					victim = c
				}
			}
		}
		if victim == nil {
			break
		}
		half := victim.grant / 2
		if half < 1 {
			half = 1
		}
		if fit := victim.grant - (sum - target); fit > half {
			half = fit
		}
		sum -= victim.grant - half
		victim.grant = half
	}
}

// TestShrinkToFitMatchesLegacy: across seeded random member groups, the
// policy-driven shrink loop reproduces the pre-refactor algorithm's grants
// exactly — the arbiter half of the byte-identical-default guarantee.
func TestShrinkToFitMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < 500; round++ {
		n := 1 + rng.Intn(8)
		mk := func() []*cand {
			out := make([]*cand, n)
			rng2 := rand.New(rand.NewSource(int64(round)))
			for i := range out {
				out[i] = &cand{
					id:        string(rune('a' + i)),
					grant:     1 + rng2.Intn(24),
					severe:    rng2.Intn(2) == 0,
					overshoot: time.Duration(rng2.Intn(500)) * time.Millisecond,
				}
			}
			return out
		}
		a, b := mk(), mk()
		sum := 0
		for _, c := range a {
			sum += c.grant
		}
		target := n + rng.Intn(sum+1) // from the floor to above the sum
		shrinkToFit(a, target)
		legacyShrinkToFit(b, target)
		for i := range a {
			if a[i].grant != b[i].grant {
				t.Fatalf("round %d target %d: member %d grant %d != legacy %d",
					round, target, i, a[i].grant, b[i].grant)
			}
		}
	}
}

// TestShrinkToFitSmallScope checks the contraction rule exhaustively in a
// small scope: every ordered group of 1 to 4 members with grants 1–6, each
// slack or severe, a severe one overshooting by −10, 0, 10 or 20 ms, at
// every target from the member count (the admission floor) to the sum. For
// every case shrinkToFit must match legacyShrinkToFit, leave no grant below
// 1, land exactly on a target the sum exceeded, and cut a severe member only
// once every slack member is down to 1.
func TestShrinkToFitSmallScope(t *testing.T) {
	overshoots := [...]time.Duration{-10 * time.Millisecond, 0, 10 * time.Millisecond, 20 * time.Millisecond}
	const states = 6 * (1 + len(overshoots)) // a grant, and slack or a severe overshoot
	var group [4]cand
	state := func(c *cand, s int) {
		*c = cand{grant: 1 + s%6}
		if k := s / 6; k > 0 {
			c.severe, c.overshoot = true, overshoots[k-1]
		}
	}
	var a, b [4]cand
	var pa, pb [4]*cand
	for i := range pa {
		pa[i], pb[i] = &a[i], &b[i]
	}
	cases := 0
	var walk func(n, depth int)
	walk = func(n, depth int) {
		if depth < n {
			for s := 0; s < states; s++ {
				state(&group[depth], s)
				walk(n, depth+1)
			}
			return
		}
		sum := 0
		for _, c := range group[:n] {
			sum += c.grant
		}
		for target := n; target <= sum; target++ {
			cases++
			copy(a[:n], group[:n])
			copy(b[:n], group[:n])
			shrinkToFit(pa[:n], target)
			legacyShrinkToFit(pb[:n], target)
			got, severeCut, slackLeft := 0, false, false
			for i := 0; i < n; i++ {
				c := &a[i]
				if c.grant != b[i].grant {
					t.Fatalf("group %+v target %d: member %d grant %d, legacy %d", group[:n], target, i, c.grant, b[i].grant)
				}
				if c.grant < 1 {
					t.Fatalf("group %+v target %d: member %d cut to %d", group[:n], target, i, c.grant)
				}
				got += c.grant
				severeCut = severeCut || c.severe && c.grant < group[i].grant
				slackLeft = slackLeft || !c.severe && c.grant > 1
			}
			if sum > target && got != target {
				t.Fatalf("group %+v target %d: grants sum to %d", group[:n], target, got)
			}
			if severeCut && slackLeft {
				t.Fatalf("group %+v target %d: a severe member was cut while a slack one kept more than 1: %+v", group[:n], target, a[:n])
			}
		}
	}
	for n := 1; n <= len(group); n++ {
		walk(n, 0)
	}
	t.Logf("%d cases", cases)
}

// scriptMember is a Member with a settable demand.
type scriptMember struct {
	mu sync.Mutex
	d  Demand
}

func (m *scriptMember) Demand() Demand {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.d
}

func (m *scriptMember) Grant(int) {}

func (m *scriptMember) set(d Demand) {
	m.mu.Lock()
	m.d = d
	m.mu.Unlock()
}

// legacyRebalance is the pre-refactor rebalance pipeline (demand gathering,
// weighted fair shares, legacy shrink) as a pure function: expected grants
// per member for one round. fairShares and tenantLoad are the untouched
// production helpers.
func legacyRebalance(budget int, order []string, tenantOf map[string]string,
	weights map[string]int, demands map[string]Demand) map[string]int {
	cands := make([]*cand, 0, len(order))
	for _, id := range order {
		d := demands[id]
		des := d.DesiredLP
		if !d.Valid || des < 1 {
			des = d.CurrentLP
			if des < 1 {
				des = 1
			}
		}
		if des > budget {
			des = budget
		}
		cands = append(cands, &cand{
			id: id, grant: des,
			severe:    d.Valid && d.Goal > 0 && d.Overshoot > 0,
			overshoot: d.Overshoot,
		})
	}
	groups := make(map[string][]*cand)
	var tenants []string
	for _, c := range cands {
		tn := tenantOf[c.id]
		if _, seen := groups[tn]; !seen {
			tenants = append(tenants, tn)
		}
		groups[tn] = append(groups[tn], c)
	}
	loads := make([]tenantLoad, len(tenants))
	for i, tn := range tenants {
		ld := tenantLoad{weight: weights[tn], floor: len(groups[tn])}
		if ld.weight < 1 {
			ld.weight = 1
		}
		for _, c := range groups[tn] {
			ld.demand += c.grant
		}
		loads[i] = ld
	}
	shares := fairShares(budget, loads)
	for i, tn := range tenants {
		legacyShrinkToFit(groups[tn], shares[i])
	}
	out := make(map[string]int, len(cands))
	for _, c := range cands {
		out[c.id] = c.grant
	}
	return out
}

// TestArbiterGrantsMatchLegacy: seeded scripted demand streams through the
// real (policy-driven) arbiter produce, round for round, exactly the grants
// of the pre-refactor rebalance pipeline — multi-tenant division included.
func TestArbiterGrantsMatchLegacy(t *testing.T) {
	const budget = 16
	clk := clock.NewVirtual(clock.Epoch)
	a := NewArbiter(budget, clk)
	a.SetTenantWeight("alpha", 3)
	a.SetTenantWeight("beta", 1)

	ids := []string{"a1", "a2", "b1", "b2", "c1"}
	tenantOf := map[string]string{"a1": "alpha", "a2": "alpha", "b1": "beta", "b2": "beta", "c1": "gamma"}
	members := map[string]*scriptMember{}
	for _, id := range ids {
		m := &scriptMember{}
		members[id] = m
		if err := a.AdmitFor(id, tenantOf[id], m); err != nil {
			t.Fatalf("admit %s: %v", id, err)
		}
	}

	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 240; round++ {
		demands := map[string]Demand{}
		for _, id := range ids {
			d := Demand{
				Valid:     rng.Intn(10) > 0,
				CurrentLP: 1 + rng.Intn(6),
				DesiredLP: rng.Intn(25),
				Goal:      time.Duration(rng.Intn(2)) * time.Second,
				Overshoot: time.Duration(rng.Intn(900)-300) * time.Millisecond,
			}
			demands[id] = d
			members[id].set(d)
		}
		a.Rebalance()
		want := legacyRebalance(budget, ids, tenantOf, map[string]int{"alpha": 3, "beta": 1}, demands)
		got := a.Grants()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: grants %v != legacy %v", round, got, want)
		}
	}
}
