package core

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"skandium/internal/clock"
)

// fakeMember scripts a Demand and records the grants it receives.
type fakeMember struct {
	mu     sync.Mutex
	demand Demand
	grants []int
}

func (f *fakeMember) Demand() Demand {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.demand
}

func (f *fakeMember) Grant(n int) {
	f.mu.Lock()
	f.grants = append(f.grants, n)
	// Granting caps the member: its actual LP follows min(desire, grant),
	// like a pool under SetCap.
	if f.demand.CurrentLP > n || f.demand.CurrentLP < n && f.demand.DesiredLP >= n {
		f.demand.CurrentLP = min(f.demand.DesiredLP, n)
	}
	f.mu.Unlock()
}

func (f *fakeMember) set(d Demand) {
	f.mu.Lock()
	f.demand = d
	f.mu.Unlock()
}

func (f *fakeMember) lastGrant() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.grants) == 0 {
		return 0
	}
	return f.grants[len(f.grants)-1]
}

func wish(desired, current int, goal, overshoot time.Duration) Demand {
	return Demand{Valid: true, DesiredLP: desired, CurrentLP: current,
		Goal: goal, Overshoot: overshoot}
}

// TestArbiterNeverExceedsBudget: under randomized demand churn from N
// members, the sum of grants stays within the global budget after every
// rebalance.
func TestArbiterNeverExceedsBudget(t *testing.T) {
	const budget = 10
	clk := clock.NewVirtual(clock.Epoch)
	a := NewArbiter(budget, clk)
	rng := rand.New(rand.NewSource(7))

	members := make([]*fakeMember, 6)
	for i := range members {
		members[i] = &fakeMember{}
		members[i].set(wish(1, 1, time.Second, 0))
		if err := a.Admit(string(rune('a'+i)), members[i]); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
	for round := 0; round < 200; round++ {
		for _, m := range members {
			over := time.Duration(rng.Intn(5)-2) * time.Second
			m.set(wish(1+rng.Intn(3*budget), 1+rng.Intn(budget), time.Second, over))
		}
		clk.Advance(time.Millisecond)
		a.Rebalance()
		if got := a.Granted(); got > budget {
			t.Fatalf("round %d: granted %d exceeds budget %d (grants %v)", round, got, budget, a.Grants())
		}
		for id, g := range a.Grants() {
			if g < 1 {
				t.Fatalf("round %d: job %s granted %d < 1", round, id, g)
			}
		}
	}
}

// TestArbiterSevereBeforeSlack: when wishes exceed the budget, a
// goal-missing job is granted its desire while the slack jobs are halved;
// the goal-misser is only shrunk once slack is exhausted, least severe
// first.
func TestArbiterSevereBeforeSlack(t *testing.T) {
	clk := clock.NewVirtual(clock.Epoch)
	a := NewArbiter(12, clk)

	severe := &fakeMember{}
	severe.set(wish(8, 2, time.Second, 500*time.Millisecond)) // missing its goal
	slackA := &fakeMember{}
	slackA.set(wish(6, 6, time.Second, -200*time.Millisecond)) // comfortable
	slackB := &fakeMember{}
	slackB.set(wish(6, 6, time.Second, -800*time.Millisecond)) // very comfortable

	for id, m := range map[string]Member{"severe": severe, "slackA": slackA, "slackB": slackB} {
		if err := a.Admit(id, m); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(time.Millisecond)
	a.Rebalance()

	// Wishes total 8+6+6=20 over a budget of 12: the severe job must get its
	// full 8; the slack jobs absorb the whole squeeze (halved to 3+1 or 2+2).
	if got := severe.lastGrant(); got != 8 {
		t.Fatalf("severe grant = %d, want full desire 8 (grants %v)", got, a.Grants())
	}
	if got := slackA.lastGrant() + slackB.lastGrant(); got > 4 {
		t.Fatalf("slack jobs kept %d > 4 (grants %v)", got, a.Grants())
	}
	if a.Granted() > 12 {
		t.Fatalf("granted %d exceeds budget", a.Granted())
	}

	// Now two severe jobs over-ask: the least severe one is shrunk first.
	slackA.set(wish(10, 3, time.Second, 100*time.Millisecond)) // mildly missing
	clk.Advance(time.Millisecond)
	a.Rebalance()
	if sg, ag := severe.lastGrant(), slackA.lastGrant(); sg < ag {
		t.Fatalf("more severe job got %d < less severe %d", sg, ag)
	}
	if a.Granted() > 12 {
		t.Fatalf("granted %d exceeds budget", a.Granted())
	}
}

// TestArbiterReleaseReturnsBudget: a finished job's grant flows back to the
// survivors on Release.
func TestArbiterReleaseReturnsBudget(t *testing.T) {
	clk := clock.NewVirtual(clock.Epoch)
	a := NewArbiter(8, clk)

	hungry := &fakeMember{}
	hungry.set(wish(8, 4, time.Second, 300*time.Millisecond))
	done := &fakeMember{}
	done.set(wish(4, 4, time.Second, -100*time.Millisecond))

	if err := a.Admit("hungry", hungry); err != nil {
		t.Fatal(err)
	}
	if err := a.Admit("done", done); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Millisecond)
	a.Rebalance()
	before := hungry.lastGrant()
	if before >= 8 {
		t.Fatalf("hungry already has the full budget (%d) while sharing", before)
	}

	a.Release("done")
	if got := hungry.lastGrant(); got != 8 {
		t.Fatalf("after release hungry grant = %d, want 8", got)
	}
	if members := a.Members(); len(members) != 1 || members[0] != "hungry" {
		t.Fatalf("members after release: %v", members)
	}
	// The release and the regrant are both in the decision log.
	var sawReturn, sawRegrant bool
	for _, d := range a.Decisions() {
		if d.Job == "done" && d.NewLP == 0 {
			sawReturn = true
		}
		if d.Job == "hungry" && d.NewLP == 8 {
			sawRegrant = true
		}
	}
	if !sawReturn || !sawRegrant {
		t.Fatalf("decision log missing return/regrant: %v", a.Decisions())
	}
	if s := a.Decisions()[0].String(); !strings.Contains(s, "grant 0->") {
		t.Fatalf("first decision renders %q, want a grant from 0", s)
	}
}

// TestArbiterAdmitCapacity: admission is bounded by the budget (one worker
// minimum per job), and capacity frees on release.
func TestArbiterAdmitCapacity(t *testing.T) {
	a := NewArbiter(2, clock.NewVirtual(clock.Epoch))
	m := func() *fakeMember {
		f := &fakeMember{}
		f.set(wish(1, 1, 0, 0))
		return f
	}
	if err := a.Admit("one", m()); err != nil {
		t.Fatal(err)
	}
	if err := a.Admit("two", m()); err != nil {
		t.Fatal(err)
	}
	if err := a.Admit("three", m()); err != ErrNoCapacity {
		t.Fatalf("third admit: err = %v, want ErrNoCapacity", err)
	}
	if err := a.Admit("one", m()); err == nil {
		t.Fatal("duplicate admit succeeded")
	}
	a.Release("one")
	if err := a.Admit("three", m()); err != nil {
		t.Fatalf("admit after release: %v", err)
	}
}
