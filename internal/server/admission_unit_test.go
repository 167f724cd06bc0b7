package server

import (
	"testing"
	"time"

	"skandium/internal/clock"
	"skandium/internal/metrics"
)

// newTestAdmission builds an admission ladder on a virtual clock with the
// canonical 3/2/1 tenant mix used across the overload tests.
func newTestAdmission(queueMax int, clk clock.Clock, onBrownout func(bool, time.Time)) *admission {
	return newAdmission(admissionConfig{
		QueueMax:      queueMax,
		Tenants:       map[string]int{"alpha": 3, "beta": 2, "gamma": 1},
		BrownoutAfter: time.Second,
		BrownoutExit:  2 * time.Second,
		Seed:          1,
		Clock:         clk,
		OnBrownout:    onBrownout,
	})
}

func TestAdmissionQuotaMath(t *testing.T) {
	a := newTestAdmission(60, clock.NewVirtual(clock.Epoch), nil)
	st := a.stats()
	want := map[string]int{"alpha": 30, "beta": 20, "gamma": 10}
	for tn, q := range want {
		if st.Quotas[tn] != q {
			t.Errorf("quota[%s] = %d, want %d", tn, st.Quotas[tn], q)
		}
	}
	// An unseen tenant registers at weight 1 and dilutes everyone's share:
	// weight sum becomes 7, so alpha's quota drops to 60*3/7 = 25.
	if !a.decide("delta", 0).admit {
		t.Fatalf("first job from a new tenant must be guaranteed-admitted")
	}
	st = a.stats()
	if st.Weights["delta"] != 1 {
		t.Errorf("delta weight = %d, want 1", st.Weights["delta"])
	}
	if st.Quotas["alpha"] != 25 {
		t.Errorf("alpha quota after delta = %d, want 25", st.Quotas["alpha"])
	}
	if st.Quotas["delta"] != 8 {
		t.Errorf("delta quota = %d, want 8", st.Quotas["delta"])
	}
}

func TestAdmissionGuaranteedRung(t *testing.T) {
	a := newTestAdmission(12, clock.NewVirtual(clock.Epoch), nil)
	// Quotas: alpha 6, beta 4, gamma 2. Every submission inside quota is
	// guaranteed, regardless of how full the rest of the queue is.
	for i := 0; i < 6; i++ {
		v := a.decide("alpha", 0)
		if !v.admit || !v.guaranteed {
			t.Fatalf("alpha #%d: admit=%v guaranteed=%v, want both", i, v.admit, v.guaranteed)
		}
	}
	// Seventh alpha job is over quota: still possibly admitted (rung 2), but
	// never guaranteed.
	if v := a.decide("alpha", 0); v.admit && v.guaranteed {
		t.Fatalf("over-quota admission must not be guaranteed")
	}
	// Gamma is untouched by alpha's overrun: its quota slots remain.
	for i := 0; i < 2; i++ {
		if v := a.decide("gamma", 0); !v.guaranteed {
			t.Fatalf("gamma #%d should be inside quota", i)
		}
	}
	// Low priority never rides the guaranteed rung, even inside quota.
	if v := a.decide("beta", -1); v.guaranteed {
		t.Fatalf("low-priority admission must not be guaranteed")
	}
}

func TestAdmissionHardShed(t *testing.T) {
	a := newTestAdmission(12, clock.NewVirtual(clock.Epoch), nil)
	// Fill every quota exactly: 6+4+2 = 12 = QueueMax.
	for tn, n := range map[string]int{"alpha": 6, "beta": 4, "gamma": 2} {
		for i := 0; i < n; i++ {
			if v := a.decide(tn, 0); !v.guaranteed {
				t.Fatalf("%s #%d should be guaranteed", tn, i)
			}
		}
	}
	v := a.decide("alpha", 1)
	if v.admit {
		t.Fatalf("queue at max: even high priority must shed")
	}
	if v.reason != metrics.ShedQueueFull {
		t.Fatalf("reason = %q, want %q", v.reason, metrics.ShedQueueFull)
	}
	if v.retryAfter < time.Second || v.retryAfter > 60*time.Second {
		t.Fatalf("retryAfter %v outside [1s, 60s]", v.retryAfter)
	}
}

func TestAdmissionPriorityShedding(t *testing.T) {
	// At high fill, low-priority sheds more often than default priority and
	// high priority never pressure-sheds. Run many trials over fresh ladders
	// at a fixed fill to compare observed rates.
	shedRate := func(priority int) float64 {
		clk := clock.NewVirtual(clock.Epoch)
		sheds, trials := 0, 400
		for i := 0; i < trials; i++ {
			a := newAdmission(admissionConfig{
				QueueMax: 20,
				Seed:     int64(i + 1),
				Clock:    clk,
			})
			// Fill to 15/20 (0.75) with the probe tenant over its quota of
			// 10, so its decision rides the probabilistic rung: expected
			// shed probability 0.75² ≈ 0.56 at default priority, ~1.0 at
			// low, 0 at high.
			for k := 0; k < 4; k++ {
				a.enqueued("filler")
			}
			for k := 0; k < 11; k++ {
				a.enqueued("probe")
			}
			if v := a.decide("probe", priority); !v.admit {
				if v.reason != metrics.ShedPressure {
					t.Fatalf("unexpected shed reason %q", v.reason)
				}
				sheds++
			}
		}
		return float64(sheds) / float64(trials)
	}
	low, def, high := shedRate(-1), shedRate(0), shedRate(1)
	if high != 0 {
		t.Errorf("high-priority shed rate %.2f, want 0 below the hard wall", high)
	}
	if low <= def {
		t.Errorf("low-priority shed rate %.2f should exceed default %.2f", low, def)
	}
	if def < 0.3 || def > 0.8 {
		t.Errorf("default shed rate %.2f implausibly far from fill² = 0.56", def)
	}
}

func TestAdmissionPressureRungHighPriorityRides(t *testing.T) {
	a := newAdmission(admissionConfig{QueueMax: 20, Seed: 1, Clock: clock.NewVirtual(clock.Epoch)})
	// 15 queued of 20 (fill 0.75), probe over quota (quota = 20/2 = 10).
	for k := 0; k < 4; k++ {
		a.enqueued("filler")
	}
	for k := 0; k < 11; k++ {
		a.enqueued("probe")
	}
	for i := 0; i < 50; i++ {
		if v := a.decide("probe", 1); !v.admit {
			t.Fatalf("high priority pressure-shed at fill<1 (reason %q)", v.reason)
		}
		a.started("probe") // release so fill stays put
	}
}

func TestAdmissionBrownoutHysteresis(t *testing.T) {
	clk := clock.NewVirtual(clock.Epoch)
	var transitions []bool
	a := newTestAdmission(12, clk, func(on bool, at time.Time) {
		transitions = append(transitions, on)
	})
	// Push fill to 1.0 (12/12 ≥ HighWater 0.75).
	for i := 0; i < 12; i++ {
		a.enqueued("alpha")
	}
	a.poll(clk.Now()) // starts the pressure timer
	if a.isBrownedOut() {
		t.Fatalf("browned out before BrownoutAfter elapsed")
	}
	clk.Advance(999 * time.Millisecond)
	a.poll(clk.Now())
	if a.isBrownedOut() {
		t.Fatalf("browned out 1ms early")
	}
	clk.Advance(time.Millisecond)
	a.poll(clk.Now())
	if !a.isBrownedOut() {
		t.Fatalf("not browned out after sustained pressure")
	}
	// While browned out, optional work sheds deterministically with the
	// brownout reason.
	a.started("alpha") // make room below the hard wall
	if v := a.decide("beta", -1); v.admit || v.reason != metrics.ShedBrownout {
		t.Fatalf("optional work during brownout: admit=%v reason=%q", v.admit, v.reason)
	}
	// Drain below LowWater (0.25 of 12 = 3).
	for i := 0; i < 9; i++ {
		a.started("alpha")
	}
	a.poll(clk.Now()) // starts the calm timer
	clk.Advance(1999 * time.Millisecond)
	a.poll(clk.Now())
	if !a.isBrownedOut() {
		t.Fatalf("recovered 1ms early")
	}
	clk.Advance(time.Millisecond)
	a.poll(clk.Now())
	if a.isBrownedOut() {
		t.Fatalf("still browned out after sustained calm")
	}
	want := []bool{true, false}
	if len(transitions) != len(want) || transitions[0] != want[0] || transitions[1] != want[1] {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
	if st := a.stats(); st.Brownouts != 1 {
		t.Fatalf("brownouts = %d, want 1", st.Brownouts)
	}
}

func TestAdmissionBrownoutMidBandHolds(t *testing.T) {
	clk := clock.NewVirtual(clock.Epoch)
	a := newTestAdmission(12, clk, nil)
	for i := 0; i < 12; i++ {
		a.enqueued("alpha")
	}
	a.poll(clk.Now())
	clk.Advance(time.Second)
	a.poll(clk.Now())
	if !a.isBrownedOut() {
		t.Fatalf("expected brownout")
	}
	// Drop into the middle band (6/12 = 0.5): state must hold indefinitely.
	for i := 0; i < 6; i++ {
		a.started("alpha")
	}
	clk.Advance(time.Hour)
	a.poll(clk.Now())
	if !a.isBrownedOut() {
		t.Fatalf("mid-band fill must not clear a brownout")
	}
}

func TestAdmissionRetryAfterFromDrainRate(t *testing.T) {
	clk := clock.NewVirtual(clock.Epoch)
	a := newTestAdmission(100, clk, nil)
	// No completions yet: blind default of ~5s, jittered within ±20%.
	ra := a.retryAfter()
	if ra < 4*time.Second || ra > 6*time.Second {
		t.Fatalf("blind retryAfter = %v, want within [4s, 6s]", ra)
	}
	// 10 completions over the last second → ~10 jobs/s drain. With 20
	// queued, the estimate is ~(20+1)/10 ≈ 2.1s before jitter.
	for i := 0; i < 20; i++ {
		a.enqueued("alpha")
	}
	for i := 0; i < 10; i++ {
		clk.Advance(100 * time.Millisecond)
		a.finished(clk.Now())
	}
	ra = a.retryAfter()
	if ra < 1680*time.Millisecond || ra > 2520*time.Millisecond {
		t.Fatalf("derived retryAfter = %v, want ~2.1s ±20%%", ra)
	}
	// Stale completions age out of the window and the default returns.
	clk.Advance(drainWindow + time.Second)
	ra = a.retryAfter()
	if ra < 4*time.Second || ra > 6*time.Second {
		t.Fatalf("post-window retryAfter = %v, want within [4s, 6s]", ra)
	}
}

func TestAdmissionRetryAfterDeterministic(t *testing.T) {
	seq := func() []time.Duration {
		a := newTestAdmission(10, clock.NewVirtual(clock.Epoch), nil)
		var out []time.Duration
		for i := 0; i < 5; i++ {
			out = append(out, a.retryAfter())
		}
		return out
	}
	x, y := seq(), seq()
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("seeded retryAfter diverged at %d: %v vs %v", i, x[i], y[i])
		}
	}
}

func TestAdmissionEntitledMatchesGuaranteed(t *testing.T) {
	a := newTestAdmission(12, clock.NewVirtual(clock.Epoch), nil)
	for i := 0; i < 30; i++ {
		tn := []string{"alpha", "beta", "gamma"}[i%3]
		pr := []int{0, 1, -1}[i%3]
		ent := a.entitled(tn, pr)
		v := a.decide(tn, pr)
		if ent && (!v.admit || !v.guaranteed) {
			t.Fatalf("step %d: entitled but verdict admit=%v guaranteed=%v", i, v.admit, v.guaranteed)
		}
		if v.admit {
			a.started(tn)
		}
	}
}

// TestFleetSheds: shed counters accumulate per reason and tenant, from the
// ladder's rulings and the server's own refusals alike, and stats returns
// copies the caller cannot use to corrupt the ladder's maps.
func TestFleetSheds(t *testing.T) {
	a := newTestAdmission(1, clock.NewVirtual(clock.Epoch), nil)
	if st := a.stats(); len(st.Sheds) != 0 || len(st.TenantSheds) != 0 {
		t.Fatalf("fresh ladder sheds = %v / %v, want empty", st.Sheds, st.TenantSheds)
	}
	if !a.decide("alpha", 0).admit { // takes the one slot
		t.Fatal("first submission shed")
	}
	a.decide("alpha", 0)
	a.decide("alpha", 1)
	a.refused("beta", metrics.ShedInfeasible)
	st := a.stats()
	if st.Sheds[metrics.ShedQueueFull] != 2 || st.Sheds[metrics.ShedInfeasible] != 1 || st.Sheds[metrics.ShedDraining] != 0 {
		t.Fatalf("sheds = %v, want queue-full 2 / goal-infeasible 1", st.Sheds)
	}
	if st.TenantSheds["alpha"][metrics.ShedQueueFull] != 2 || st.TenantSheds["beta"][metrics.ShedInfeasible] != 1 {
		t.Fatalf("tenant sheds = %v", st.TenantSheds)
	}
	st.Sheds[metrics.ShedQueueFull] = 99
	st.TenantSheds["alpha"][metrics.ShedQueueFull] = 99
	if again := a.stats(); again.Sheds[metrics.ShedQueueFull] != 2 || again.TenantSheds["alpha"][metrics.ShedQueueFull] != 2 {
		t.Fatalf("stats returned shared maps: %v / %v", again.Sheds, again.TenantSheds)
	}
}

func TestAdmissionUnboundedQueueAdmitsAll(t *testing.T) {
	a := newAdmission(admissionConfig{QueueMax: 0, Clock: clock.NewVirtual(clock.Epoch)})
	for i := 0; i < 100; i++ {
		v := a.decide("anyone", 0)
		if !v.admit || !v.guaranteed {
			t.Fatalf("unbounded queue must admit everything as guaranteed")
		}
	}
	if v := a.decide("anyone", -1); !v.admit || v.guaranteed {
		t.Fatalf("low priority admits but is not guaranteed: admit=%v guaranteed=%v", v.admit, v.guaranteed)
	}
}
