package sim

import (
	"fmt"
	"testing"
	"time"

	"skandium/internal/core"
	"skandium/internal/estimate"
	"skandium/internal/event"
	"skandium/internal/muscle"
	"skandium/internal/skel"
	"skandium/internal/statemachine"
)

// TestMultiNodeCapacityAndLink: in multi-node mode the LP lever provisions
// nodes, admission is bounded by the provisioned nodes' thread sum, and
// every muscle pays its node's round-trip link latency — all in virtual
// time, with exact makespans.
func TestMultiNodeCapacityAndLink(t *testing.T) {
	nd, fs, fe, fm := buildMapProgram()
	costs := costTable{fs.ID(): 0, fe.ID(): ms(10), fm.ID(): 0}
	nodes := []NodeSpec{
		{Threads: 2, Link: ms(5)},
		{Threads: 2, Link: ms(5)},
	}

	// One provisioned node: 2 threads, every muscle pays a 10ms round trip.
	// split(10) + 8 items × (10+10) on 2 threads (4 waves) + merge(10).
	eng := NewEngine(Config{Costs: costs, Nodes: nodes, LP: 1, MaxLP: 2})
	res, makespan, err := eng.Run(nd, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res != 56 { // sum of 2*i for i in 0..7
		t.Fatalf("result %v, want 56", res)
	}
	if makespan != ms(100) {
		t.Fatalf("1-node makespan %v, want 100ms", makespan)
	}

	// Both nodes: 4 threads, 2 waves of items.
	eng2 := NewEngine(Config{Costs: costs, Nodes: nodes, LP: 2, MaxLP: 2})
	if _, makespan, err = eng2.Run(nd, 8); err != nil {
		t.Fatal(err)
	}
	if makespan != ms(60) {
		t.Fatalf("2-node makespan %v, want 60ms", makespan)
	}
}

// TestMultiNodeLPClampsToPark: SetLP cannot provision more nodes than the
// machine park holds.
func TestMultiNodeLPClampsToPark(t *testing.T) {
	nd, fs, fe, fm := buildMapProgram()
	costs := costTable{fs.ID(): 0, fe.ID(): ms(1), fm.ID(): 0}
	eng := NewEngine(Config{Costs: costs, Nodes: []NodeSpec{{Threads: 2}, {Threads: 2}}, LP: 1})
	eng.SetLP(99)
	if got := eng.LP(); got != 2 {
		t.Fatalf("LP after SetLP(99) = %d, want clamp to 2 nodes", got)
	}
	if _, _, err := eng.Run(nd, 4); err != nil {
		t.Fatal(err)
	}
}

// TestMultiNodeControllerAdapts: the unchanged WCT controller drives the
// node count of a simulated cluster — provisioning machines instead of
// threads — deterministically in virtual time.
func TestMultiNodeControllerAdapts(t *testing.T) {
	build := func() (*skel.Node, costTable) {
		fsO := muscle.NewSplit("fsO", func(p any) ([]any, error) {
			out := make([]any, 4)
			for i := range out {
				out[i] = i
			}
			return out, nil
		})
		fsI := muscle.NewSplit("fsI", func(p any) ([]any, error) {
			out := make([]any, 3)
			for i := range out {
				out[i] = i
			}
			return out, nil
		})
		fe := muscle.NewExecute("fe", func(p any) (any, error) { return 1, nil })
		fmBoth := muscle.NewMerge("fm", func(ps []any) (any, error) { return len(ps), nil })
		inner := skel.NewMap(fsI, skel.NewSeq(fe), fmBoth)
		outer := skel.NewMap(fsO, inner, fmBoth)
		costs := costTable{fsO.ID(): ms(10), fsI.ID(): ms(5), fe.ID(): ms(10), fmBoth.ID(): ms(2)}
		return outer, costs
	}
	nodes := []NodeSpec{
		{Threads: 2, Link: ms(1)},
		{Threads: 2, Link: ms(1)},
		{Threads: 2, Link: ms(1)},
		{Threads: 2, Link: ms(1)},
	}

	// Baseline: one node, no controller.
	ndB, costsB := build()
	engB := NewEngine(Config{Costs: costsB, Nodes: nodes, LP: 1, MaxLP: 4})
	_, baseline, err := engB.Run(ndB, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Controlled run: the WCT goal forces the controller to provision nodes.
	nd, costs := build()
	reg := event.NewRegistry()
	est := estimate.NewRegistry(estimate.DefaultRho)
	tracker := statemachine.NewTracker(est)
	eng := NewEngine(Config{Costs: costs, Nodes: nodes, LP: 1, MaxLP: 4, Events: reg})
	ctl := core.NewController(core.Config{WCTGoal: baseline / 2, MaxLP: 4},
		nd, eng, est, tracker, eng.Clock())
	ctl.SetStart(eng.Now())
	core.Attach(reg, tracker, ctl)

	_, makespan, err := eng.Run(nd, 0)
	if err != nil {
		t.Fatal(err)
	}
	decisions := ctl.Decisions()
	if len(decisions) == 0 {
		t.Fatal("controller never provisioned a node")
	}
	if decisions[0].NewLP <= decisions[0].OldLP {
		t.Fatalf("first decision did not provision nodes: %+v", decisions[0])
	}
	for _, d := range decisions {
		if d.NewLP > len(nodes) {
			t.Fatalf("decision provisions %d nodes, park holds %d", d.NewLP, len(nodes))
		}
	}
	if makespan >= baseline {
		t.Fatalf("controlled makespan %v not better than 1-node baseline %v", makespan, baseline)
	}
}

// simNodeMember adapts a simulated node's probed report into a cluster
// arbiter member, mirroring how remote.Cluster adapts a live worker.
type simNodeMember struct {
	rep   core.NodeReport
	grant int
}

func (m *simNodeMember) Demand() core.Demand { return core.NodeDemand(m.rep) }
func (m *simNodeMember) Grant(g int)         { m.grant = g }

// TestMultiNodeClusterArbiterBudget is the acceptance-criteria test: a
// cluster arbiter dividing a global LP budget over the nodes of a
// deterministic multi-node simulation keeps Σ per-node grants ≤ budget at
// every virtual-time transition, even while per-node demand far exceeds
// the budget.
func TestMultiNodeClusterArbiterBudget(t *testing.T) {
	nd, fs, fe, fm := buildMapProgram()
	costs := costTable{fs.ID(): 0, fe.ID(): ms(10), fm.ID(): 0}
	nodes := []NodeSpec{
		{Threads: 4, Link: ms(1)},
		{Threads: 4, Link: ms(1)},
		{Threads: 4, Link: ms(1)},
	}
	budget := 6 // < 12 threads of aggregate demand: the arbiter must squeeze

	var eng *Engine
	members := make([]*simNodeMember, len(nodes))
	for i := range members {
		members[i] = &simNodeMember{rep: core.NodeReport{LP: 1, MaxLP: nodes[i].Threads}}
	}

	var ca *core.Arbiter
	pressured := false
	var violation error
	gauge := func(now time.Time, active, lp int) {
		if ca == nil || violation != nil {
			return
		}
		// Probe: refresh each member's report from the simulated park, then
		// let the arbiter re-divide the budget — the same sample/rebalance
		// cycle the live coordinator runs against worker /healthz responses.
		occ := eng.NodeOccupancy()
		demand := 0
		for i, m := range members {
			m.rep.Active = occ[i]
			m.rep.LP = m.grant
			demand += core.NodeDemand(m.rep).DesiredLP
		}
		if demand > budget {
			pressured = true
		}
		ca.Rebalance()
		total := 0
		for _, m := range members {
			total += m.grant
		}
		if total > budget || ca.Granted() > budget {
			violation = fmt.Errorf("at %v: Σ grants %d (arbiter %d) exceeds budget %d",
				now.Sub(eng.StartTime()), total, ca.Granted(), budget)
		}
	}

	eng = NewEngine(Config{Costs: costs, Nodes: nodes, LP: 3, Gauge: gauge})
	ca = core.NewArbiter(budget, eng.Clock())
	for i, m := range members {
		if err := ca.Admit(fmt.Sprintf("sim-node-%d", i), m); err != nil {
			t.Fatalf("admit node %d: %v", i, err)
		}
	}

	if _, _, err := eng.Run(nd, 32); err != nil {
		t.Fatal(err)
	}
	if violation != nil {
		t.Fatal(violation)
	}
	if !pressured {
		t.Fatal("workload never pushed aggregate demand above the budget; test is vacuous")
	}
	// Every decision the arbiter logged is stamped by the simulation's
	// virtual clock, so the grant history is fully deterministic.
	if len(ca.Decisions()) == 0 {
		t.Fatal("arbiter made no grant decisions under pressure")
	}
	for _, d := range ca.Decisions() {
		if d.Time.Before(eng.StartTime()) {
			t.Fatalf("decision stamped before virtual start: %+v", d)
		}
	}
}
