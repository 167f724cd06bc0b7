package exec

import (
	"testing"

	"skandium/internal/clock"
)

// TestExternalCapClampsAndRestores: SetCap lowers the effective LP in both
// directions and remembers the unclamped target, so lifting the cap restores
// the controller's last request.
func TestExternalCapClampsAndRestores(t *testing.T) {
	pool := NewPool(clock.System, 4, 0)
	defer pool.Close()
	if got := pool.LP(); got != 4 {
		t.Fatalf("initial LP = %d, want 4", got)
	}
	pool.SetCap(2)
	if got := pool.LP(); got != 2 || pool.Cap() != 2 {
		t.Fatalf("LP under cap = %d (cap %d), want 2", got, pool.Cap())
	}
	if got := pool.Want(); got != 4 {
		t.Fatalf("Want = %d, want 4", got)
	}
	// Raising the target while capped records the wish but stays clamped.
	pool.SetLP(8)
	if got := pool.LP(); got != 2 {
		t.Fatalf("LP after capped SetLP = %d, want 2", got)
	}
	// Widening the cap releases up to the remembered target.
	pool.SetCap(6)
	if got := pool.LP(); got != 6 {
		t.Fatalf("LP after widening cap = %d, want 6", got)
	}
	pool.SetCap(0)
	if got := pool.LP(); got != 8 {
		t.Fatalf("LP after lifting cap = %d, want 8", got)
	}
}

// TestExternalCapComposesWithMaxLP: the tighter of maxLP and the external
// cap wins; SetMaxLP re-clamps at runtime.
func TestExternalCapComposesWithMaxLP(t *testing.T) {
	pool := NewPool(clock.System, 10, 5)
	defer pool.Close()
	if got := pool.LP(); got != 5 {
		t.Fatalf("LP = %d, want 5 (maxLP clamp)", got)
	}
	pool.SetCap(3)
	if got := pool.LP(); got != 3 {
		t.Fatalf("LP = %d, want 3 (cap tighter)", got)
	}
	pool.SetMaxLP(2)
	if got := pool.LP(); got != 2 {
		t.Fatalf("LP = %d, want 2 (maxLP tighter)", got)
	}
	pool.SetMaxLP(0)
	if got := pool.LP(); got != 3 {
		t.Fatalf("LP = %d, want 3 (cap again)", got)
	}
	// A cap never drops the floor below one worker.
	pool.SetCap(1)
	if got := pool.LP(); got != 1 {
		t.Fatalf("LP = %d, want 1", got)
	}
}
