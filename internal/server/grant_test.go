package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skandium"
)

// gateBlueprint runs one muscle that blocks until its gate opens, so a job
// stays running, with no controller analysis, for as long as a test reads
// its grant.
const gateBlueprint = "servertest-gate"

// gates maps a gate name (the job's "gate" param) to its channel.
var (
	gates   sync.Map
	gateSeq atomic.Int64
)

func init() {
	skandium.RegisterBlueprint(skandium.Blueprint{
		Name:        gateBlueprint,
		Description: "one muscle that waits for its gate to open, for the grant tests",
		Build: func(p skandium.Params) (skandium.Runner, error) {
			c, ok := gates.Load(p.String("gate", ""))
			if !ok {
				return nil, fmt.Errorf("%s: no gate %q", gateBlueprint, p.String("gate", ""))
			}
			ch := c.(chan struct{})
			wait := skandium.NewExec("wait", func(x int) (int, error) {
				<-ch
				return x, nil
			})
			return skandium.NewRunner(skandium.Seq(wait), 1), nil
		},
	})
}

// newGate registers a closed-until-opened gate and returns its name and its
// opener. The gate opens at cleanup at the latest, before the daemon closes.
func newGate(t *testing.T) (string, func()) {
	t.Helper()
	name := fmt.Sprintf("gate-%d", gateSeq.Add(1))
	ch := make(chan struct{})
	gates.Store(name, ch)
	var once sync.Once
	open := func() { once.Do(func() { close(ch) }) }
	t.Cleanup(func() {
		open()
		gates.Delete(name)
	})
	return name, open
}

// submitGated submits a gated job with the given initial LP and goal.
func submitGated(t *testing.T, srv *Server, gate string, initialLP int, goal time.Duration) *job {
	t.Helper()
	j, err := srv.Submit(SubmitSpec{
		Skeleton:  gateBlueprint,
		Params:    skandium.Params{"gate": gate},
		InitialLP: initialLP,
		Goal:      goal,
	})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// checkGrantLog replays the arbiter's grant log and fails if the grants
// ever summed above the budget.
func checkGrantLog(t *testing.T, srv *Server) {
	t.Helper()
	grants := map[string]int{}
	for _, d := range srv.Arbiter().Decisions() {
		grants[d.Job] = d.NewLP
		sum := 0
		for _, g := range grants {
			sum += g
		}
		if sum > srv.Budget() {
			t.Fatalf("after %v the grants sum to %d, over the budget of %d", d, sum, srv.Budget())
		}
	}
}

// TestGrantInitialLPGoalless: a goal-less job that asks for LP 2 on an idle
// daemon with budget 4 runs at 2 from its submit on, and its view says why.
func TestGrantInitialLPGoalless(t *testing.T) {
	srv, ts := newTestDaemon(t, Config{Budget: 4})
	gate, _ := newGate(t)
	resp, body := postJSON(t, ts.URL+"/jobs", map[string]any{
		"skeleton": gateBlueprint, "params": map[string]any{"gate": gate}, "initial_lp": 2,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	var v jobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v.State != string(stateRunning) || v.Grant != 2 || v.LP != 2 || v.DesiredLP != 2 {
		t.Fatalf("right after submit: state %s grant %d lp %d desired %d, want running at 2/2/2",
			v.State, v.Grant, v.LP, v.DesiredLP)
	}
	srv.Arbiter().Rebalance()
	if v := getJSON[jobView](t, ts.URL+"/jobs/"+v.ID); v.Grant != 2 || v.LP != 2 || v.DesiredLP != 2 {
		t.Fatalf("after a rebalance: grant %d lp %d desired %d, want 2/2/2", v.Grant, v.LP, v.DesiredLP)
	}
}

// TestGrantInitialLPGoalJob: a goal job holds its initial LP until its
// controller's first analysis, which a gated muscle holds off.
func TestGrantInitialLPGoalJob(t *testing.T) {
	srv, _ := newTestDaemon(t, Config{Budget: 4})
	gate, _ := newGate(t)
	j := submitGated(t, srv, gate, 3, 10*time.Second)
	for i := 0; i < 2; i++ {
		v := srv.jobView(j)
		if v.Analyses != 0 {
			t.Fatalf("the gated goal job ran %d analyses", v.Analyses)
		}
		if v.Grant != 3 || v.LP != 3 || v.DesiredLP != 3 {
			t.Fatalf("before the first analysis: grant %d lp %d desired %d, want 3/3/3", v.Grant, v.LP, v.DesiredLP)
		}
		srv.Arbiter().Rebalance()
	}
}

// TestGrantInitialLPClampsToBudget: a wish above the budget gets the budget.
func TestGrantInitialLPClampsToBudget(t *testing.T) {
	srv, _ := newTestDaemon(t, Config{Budget: 4})
	gate, _ := newGate(t)
	j := submitGated(t, srv, gate, 9, 0)
	if v := srv.jobView(j); v.Grant != 4 || v.LP != 4 {
		t.Fatalf("initial_lp 9 on budget 4: grant %d lp %d, want 4/4", v.Grant, v.LP)
	}
	checkGrantLog(t, srv)
}

// TestGrantMaxLPPatchGivesGrantBack: lowering max_lp shrinks the grant to
// it, and lifting it gives the initial LP back.
func TestGrantMaxLPPatchGivesGrantBack(t *testing.T) {
	srv, ts := newTestDaemon(t, Config{Budget: 4})
	gate, _ := newGate(t)
	j := submitGated(t, srv, gate, 3, 0)
	patch := func(maxLP int) jobView {
		t.Helper()
		req, err := http.NewRequest(http.MethodPatch, ts.URL+"/jobs/"+j.id+"/qos",
			strings.NewReader(fmt.Sprintf(`{"max_lp":%d}`, maxLP)))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var v jobView
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		return v
	}
	if v := patch(1); v.Grant != 1 || v.LP != 1 || v.DesiredLP != 1 {
		t.Fatalf("max_lp 1: grant %d lp %d desired %d, want 1/1/1", v.Grant, v.LP, v.DesiredLP)
	}
	if v := patch(0); v.Grant != 3 || v.LP != 3 || v.DesiredLP != 3 {
		t.Fatalf("max_lp lifted: grant %d lp %d desired %d, want the initial LP 3", v.Grant, v.LP, v.DesiredLP)
	}
	checkGrantLog(t, srv)
}

// TestGrantRatchetReturns: a job the arbiter shrank to admit others gets
// its initial LP back once they are released; the cap it was shrunk to is
// never read back as its wish. A goal job before its first analysis wants
// the same as a goal-less one.
func TestGrantRatchetReturns(t *testing.T) {
	for _, goal := range []time.Duration{0, 10 * time.Second} {
		t.Run(fmt.Sprintf("goal=%v", goal), func(t *testing.T) { testGrantRatchet(t, goal) })
	}
}

func testGrantRatchet(t *testing.T, goal time.Duration) {
	srv, _ := newTestDaemon(t, Config{Budget: 4})
	gateA, _ := newGate(t)
	gateBC, openBC := newGate(t)
	a := submitGated(t, srv, gateA, 3, goal)
	if g := srv.Arbiter().Grants()[a.id]; g != 3 {
		t.Fatalf("A alone: grant %d, want 3", g)
	}
	b := submitGated(t, srv, gateBC, 1, 0)
	c := submitGated(t, srv, gateBC, 1, 0)
	grants := srv.Arbiter().Grants()
	if grants[a.id] >= 3 || grants[b.id] != 1 || grants[c.id] != 1 {
		t.Fatalf("with B and C admitted: grants %v, want A shrunk below 3 and B, C at 1", grants)
	}
	if v := srv.jobView(a); v.LP != grants[a.id] || v.DesiredLP != 3 {
		t.Fatalf("shrunk A: lp %d desired %d, want lp at its grant %d and desired 3", v.LP, v.DesiredLP, grants[a.id])
	}
	srv.Arbiter().Rebalance() // the shrunk cap is not A's wish
	if g := srv.Arbiter().Grants()[a.id]; g != grants[a.id] {
		t.Fatalf("a rebalance moved A from %d to %d with B and C still running", grants[a.id], g)
	}

	openBC()
	for _, j := range []*job{b, c} {
		if _, err := waitJobDone(t, j); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(srv.Arbiter().Members()) > 1 {
		if time.Now().After(deadline) {
			t.Fatalf("B and C never released: members %v", srv.Arbiter().Members())
		}
		time.Sleep(time.Millisecond)
	}
	if g := srv.Arbiter().Grants()[a.id]; g != 3 {
		t.Fatalf("B and C released: A's grant %d, want its initial LP 3 back", g)
	}
	if v := srv.jobView(a); v.LP != 3 || v.Analyses != 0 {
		t.Fatalf("B and C released: A runs at LP %d after %d analyses, want 3 after none", v.LP, v.Analyses)
	}
	checkGrantLog(t, srv)
}

// TestGrantClusterJobDemandsClusterLP: a cluster-routed job wants what the
// cluster runs at, not its initial LP.
func TestGrantClusterJobDemandsClusterLP(t *testing.T) {
	cl, _ := newTestCluster(t, 2)
	j := &job{live: &live{initLP: 3}, handle: &clusterRun{cluster: cl, done: make(chan struct{})}}
	if d := j.Demand(); d.CurrentLP != cl.LP() || d.Valid {
		t.Fatalf("cluster-routed job demands %+v, want CurrentLP %d", d, cl.LP())
	}
}
