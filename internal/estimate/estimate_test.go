package estimate

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"skandium/internal/muscle"
)

func TestEWMAFirstObservation(t *testing.T) {
	e := NewEWMA(0.5)
	if _, ok := e.Value(); ok {
		t.Fatal("fresh estimator reports a value")
	}
	e.Observe(10)
	v, ok := e.Value()
	if !ok || v != 10 {
		t.Fatalf("after first observation: %v/%v", v, ok)
	}
}

func TestEWMAPaperFormula(t *testing.T) {
	// newEstimatedVal = ρ·lastActual + (1-ρ)·previousEstimated
	e := NewEWMA(0.5)
	e.Observe(10)
	e.Observe(20) // 0.5*20 + 0.5*10 = 15
	if v, _ := e.Value(); v != 15 {
		t.Fatalf("got %v, want 15", v)
	}
	e.Observe(5) // 0.5*5 + 0.5*15 = 10
	if v, _ := e.Value(); v != 10 {
		t.Fatalf("got %v, want 10", v)
	}
	if e.Observations() != 3 {
		t.Fatalf("observations = %d, want 3", e.Observations())
	}
}

func TestEWMARhoOneKeepsLast(t *testing.T) {
	// "if ρ is set to 1, then only the last measure will be taken into
	// account"
	e := NewEWMA(1)
	for _, v := range []float64{3, 9, 27} {
		e.Observe(v)
	}
	if v, _ := e.Value(); v != 27 {
		t.Fatalf("got %v, want 27", v)
	}
}

func TestEWMARhoZeroKeepsFirst(t *testing.T) {
	// "if ρ is set to 0, then only the first value will be taken into
	// account"
	e := NewEWMA(0)
	for _, v := range []float64{3, 9, 27} {
		e.Observe(v)
	}
	if v, _ := e.Value(); v != 3 {
		t.Fatalf("got %v, want 3", v)
	}
}

func TestEWMAInitSeedsWithoutObservation(t *testing.T) {
	e := NewEWMA(0.5)
	e.Init(40)
	v, ok := e.Value()
	if !ok || v != 40 {
		t.Fatalf("init not visible: %v/%v", v, ok)
	}
	if e.Observations() != 0 {
		t.Fatal("Init must not count as an observation")
	}
	e.Observe(20) // 0.5*20 + 0.5*40 = 30: init acts as previous estimate
	if v, _ := e.Value(); v != 30 {
		t.Fatalf("got %v, want 30", v)
	}
}

func TestEWMABadRhoPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for ρ=2")
		}
	}()
	NewEWMA(2)
}

// Property: an EWMA estimate always stays within [min, max] of everything
// it has seen (observations and init).
func TestEWMABoundedProperty(t *testing.T) {
	f := func(rhoRaw uint8, seed []float64) bool {
		rho := float64(rhoRaw%101) / 100
		e := NewEWMA(rho)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, raw := range seed {
			v := normalize(raw)
			e.Observe(v)
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		if math.IsInf(lo, 1) {
			return true // nothing observed
		}
		got, ok := e.Value()
		return ok && got >= lo-1e-9 && got <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// normalize maps an arbitrary generated float into [0, 1e6) so additive
// epsilons in bound checks stay meaningful (at 1e308 scale the EWMA's
// floating-point rounding legitimately exceeds any absolute epsilon).
func normalize(raw float64) float64 {
	if math.IsNaN(raw) || math.IsInf(raw, 0) {
		return 0
	}
	return math.Mod(math.Abs(raw), 1e6)
}

// --- registry -------------------------------------------------------------------

func TestRegistryDurations(t *testing.T) {
	r := NewRegistry(DefaultRho)
	m := muscle.NewExecute("m", func(p any) (any, error) { return p, nil })
	if _, ok := r.Duration(m.ID()); ok {
		t.Fatal("unknown muscle reports a duration")
	}
	r.ObserveDuration(m.ID(), 100*time.Millisecond)
	d, ok := r.Duration(m.ID())
	if !ok || d != 100*time.Millisecond {
		t.Fatalf("duration %v/%v", d, ok)
	}
	r.ObserveDuration(m.ID(), 200*time.Millisecond)
	if d, _ := r.Duration(m.ID()); d != 150*time.Millisecond {
		t.Fatalf("EWMA duration %v, want 150ms", d)
	}
	if n := r.DurationObservations(m.ID()); n != 2 {
		t.Fatalf("observations %d, want 2", n)
	}
}

// TestRegistryDurationRoundTrips: a duration seeded with InitDuration reads
// back to the nanosecond, over [0.5, 2] ms in steps of 997 ns, although its
// seconds in a float64 are not exact.
func TestRegistryDurationRoundTrips(t *testing.T) {
	r := NewRegistry(DefaultRho)
	m := muscle.NewExecute("m", func(p any) (any, error) { return p, nil })
	for d := 500 * time.Microsecond; d <= 2*time.Millisecond; d += 997 {
		r.InitDuration(m.ID(), d)
		if got, ok := r.Duration(m.ID()); !ok || got != d {
			t.Fatalf("InitDuration(%d ns) reads back as %d ns (%v)", d, got, ok)
		}
	}
}

func TestRegistryCards(t *testing.T) {
	r := NewRegistry(DefaultRho)
	m := muscle.NewSplit("s", func(p any) ([]any, error) { return nil, nil })
	r.ObserveCard(m.ID(), 5)
	r.ObserveCard(m.ID(), 7)
	c, ok := r.Card(m.ID())
	if !ok || c != 6 {
		t.Fatalf("card %v/%v, want 6", c, ok)
	}
}

func TestRegistryComplete(t *testing.T) {
	r := NewRegistry(DefaultRho)
	a := muscle.NewExecute("a", func(p any) (any, error) { return p, nil })
	s := muscle.NewSplit("s", func(p any) ([]any, error) { return nil, nil })
	durIDs := []muscle.ID{a.ID(), s.ID()}
	cardIDs := []muscle.ID{s.ID()}
	if r.Complete(durIDs, cardIDs) {
		t.Fatal("empty registry reported complete")
	}
	r.ObserveDuration(a.ID(), time.Millisecond)
	r.ObserveDuration(s.ID(), time.Millisecond)
	if r.Complete(durIDs, cardIDs) {
		t.Fatal("missing card reported complete")
	}
	r.ObserveCard(s.ID(), 3)
	if !r.Complete(durIDs, cardIDs) {
		t.Fatal("complete registry reported incomplete")
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	r := NewRegistry(DefaultRho)
	a := muscle.NewExecute("a", func(p any) (any, error) { return p, nil })
	s := muscle.NewSplit("s", func(p any) ([]any, error) { return nil, nil })
	r.ObserveDuration(a.ID(), 80*time.Millisecond)
	r.ObserveDuration(s.ID(), 10*time.Millisecond)
	r.ObserveCard(s.ID(), 4)
	prof := r.Snapshot()

	r2 := NewRegistry(DefaultRho)
	r2.Restore(prof)
	if d, ok := r2.Duration(a.ID()); !ok || d != 80*time.Millisecond {
		t.Fatalf("restored duration %v/%v", d, ok)
	}
	if c, ok := r2.Card(s.ID()); !ok || c != 4 {
		t.Fatalf("restored card %v/%v", c, ok)
	}
	// Restored values arrive via Init: no observation counted.
	if n := r2.DurationObservations(a.ID()); n != 0 {
		t.Fatalf("restore counted %d observations", n)
	}
}

func TestRegistryNegativeDurationClamped(t *testing.T) {
	r := NewRegistry(DefaultRho)
	a := muscle.NewExecute("a", func(p any) (any, error) { return p, nil })
	r.InitDuration(a.ID(), -5*time.Millisecond)
	d, ok := r.Duration(a.ID())
	if !ok {
		t.Fatal("no value")
	}
	if d > 0 {
		t.Fatalf("negative init produced %v", d)
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	r := NewRegistry(DefaultRho)
	m := muscle.NewExecute("m", func(p any) (any, error) { return p, nil })
	done := make(chan struct{})
	go func() {
		for i := 0; i < 1000; i++ {
			r.ObserveDuration(m.ID(), time.Duration(i))
		}
		close(done)
	}()
	for i := 0; i < 1000; i++ {
		r.Duration(m.ID())
		r.Snapshot()
	}
	<-done
}
