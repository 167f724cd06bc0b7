package paperexp

import (
	"testing"
	"time"

	"skandium/internal/core"
)

// TestDaCBaselineSequential: the fixed-LP(1) mergesort takes the full
// sequential work: 16 leaves × 80ms + 15 × (5+10)ms splits/merges + 31 ×
// 1ms conds = 1.536s.
func TestDaCBaselineSequential(t *testing.T) {
	r, err := RunDaC(DaCSpec{Goal: -1}) // negative goal: fixed-LP baseline
	if err != nil {
		t.Fatal(err)
	}
	if !r.Sorted {
		t.Fatal("output not sorted")
	}
	want := 1536 * time.Millisecond
	if r.Makespan != want {
		t.Fatalf("sequential makespan %v, want %v", r.Makespan, want)
	}
	if len(r.Decisions) != 0 {
		t.Fatalf("baseline adapted: %v", r.Decisions)
	}
}

// TestDaCAutonomic: with a 400ms goal the controller must adapt mid-run —
// the d&c structure unfolds dynamically, so this exercises the ADG's
// recursive expansion from |fc| and |fs| estimates.
func TestDaCAutonomic(t *testing.T) {
	r, err := RunDaC(DaCSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Sorted {
		t.Fatal("output not sorted")
	}
	if len(r.Decisions) == 0 {
		t.Fatal("controller never adapted")
	}
	if r.Decisions[0].NewLP <= r.Decisions[0].OldLP {
		t.Fatalf("first decision not an increase: %v", r.Decisions[0])
	}
	if r.Makespan > r.Spec.Goal {
		t.Fatalf("makespan %v misses the %v goal (decisions %v)",
			r.Makespan, r.Spec.Goal, r.Decisions)
	}
	if r.Makespan >= 1536*time.Millisecond {
		t.Fatal("no speedup over sequential")
	}
	if r.PeakLP <= 1 || r.PeakLP > 24 {
		t.Fatalf("peak LP %d out of range", r.PeakLP)
	}
	// Adaptation must happen well before the sequential half-way point.
	if r.FirstAdapt > 800*time.Millisecond {
		t.Fatalf("first adaptation too late: %v", r.FirstAdapt)
	}
}

// TestDaCLooseGoalNoAdaptation: a goal above the sequential work needs no
// threads added.
func TestDaCLooseGoalNoAdaptation(t *testing.T) {
	spec := DaCSpec{Goal: 5 * time.Second}
	r, err := RunDaC(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range r.Decisions {
		if d.NewLP > d.OldLP {
			t.Fatalf("unnecessary increase: %v", d)
		}
	}
}

// TestDaCTighterGoalHigherPeak: shrinking the goal raises the LP peak
// (same who-wins ordering as Figs. 5 vs 7).
func TestDaCTighterGoalHigherPeak(t *testing.T) {
	tight, err := RunDaC(DaCSpec{Goal: 300 * time.Millisecond, Policy: core.PaperPolicy{Increase: core.IncreaseMinimal}})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := RunDaC(DaCSpec{Goal: 900 * time.Millisecond, Policy: core.PaperPolicy{Increase: core.IncreaseMinimal}})
	if err != nil {
		t.Fatal(err)
	}
	if tight.PeakLP <= loose.PeakLP {
		t.Fatalf("tight goal peak %d not above loose goal peak %d",
			tight.PeakLP, loose.PeakLP)
	}
}
