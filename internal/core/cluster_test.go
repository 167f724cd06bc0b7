package core

import (
	"testing"
	"time"

	"skandium/internal/clock"
)

// clusterNode is a test node member fed by a mutable report.
type clusterNode struct {
	rep   NodeReport
	grant int
}

func (n *clusterNode) Demand() Demand { return NodeDemand(n.rep) }
func (n *clusterNode) Grant(g int)    { n.grant = g }

// TestClusterArbiterBudgetInvariant: per-node grants track demand but their
// sum never exceeds the global budget, through admission, demand swings and
// node loss — all on the virtual clock, fully deterministic.
func TestClusterArbiterBudgetInvariant(t *testing.T) {
	vclk := clock.NewVirtual(clock.Epoch)
	budget := 8
	ca := NewArbiter(budget, vclk)

	nodes := map[string]*clusterNode{
		"w1": {rep: NodeReport{LP: 1, Active: 4, Queued: 12, MaxLP: 8}},
		"w2": {rep: NodeReport{LP: 1, Active: 1, Queued: 0, MaxLP: 8}},
		"w3": {rep: NodeReport{LP: 1, Active: 6, Queued: 2, MaxLP: 8}},
	}
	checkSum := func(when string) {
		total := 0
		for addr, n := range nodes {
			if g, ok := ca.Grants()[addr]; ok {
				if g != n.grant {
					t.Fatalf("%s: arbiter says %s has %d, node saw %d", when, addr, g, n.grant)
				}
				total += g
			}
		}
		if total > budget {
			t.Fatalf("%s: sum of per-node grants %d exceeds budget %d", when, total, budget)
		}
		if ca.Granted() > budget {
			t.Fatalf("%s: Granted()=%d exceeds budget %d", when, ca.Granted(), budget)
		}
	}

	for _, addr := range []string{"w1", "w2", "w3"} {
		if err := ca.Admit(addr, nodes[addr]); err != nil {
			t.Fatalf("admit %s: %v", addr, err)
		}
		checkSum("after admit " + addr)
	}

	// Demands far above the budget: grants must be squeezed, not summed.
	vclk.Advance(time.Second)
	nodes["w1"].rep = NodeReport{LP: 8, Active: 8, Queued: 40, MaxLP: 8}
	nodes["w2"].rep = NodeReport{LP: 2, Active: 2, Queued: 30, MaxLP: 8}
	nodes["w3"].rep = NodeReport{LP: 4, Active: 4, Queued: 20, MaxLP: 8}
	ca.Rebalance()
	checkSum("under pressure")

	// Node loss: the dead node's share flows to the survivors.
	vclk.Advance(time.Second)
	before := ca.Granted()
	ca.Release("w2")
	delete(nodes, "w2")
	ca.Rebalance()
	checkSum("after node loss")
	if ca.Granted() < before-nodes["w1"].grant { // survivors re-absorb budget
		t.Fatalf("budget not redistributed after node loss: %d granted", ca.Granted())
	}
	for _, addr := range ca.Members() {
		if addr == "w2" {
			t.Fatal("released node still admitted")
		}
	}

	// An idle cluster decays toward the one-worker floor per node.
	vclk.Advance(time.Second)
	nodes["w1"].rep = NodeReport{LP: 8, Active: 0, Queued: 0, MaxLP: 8}
	nodes["w3"].rep = NodeReport{LP: 4, Active: 0, Queued: 0, MaxLP: 8}
	for i := 0; i < 6; i++ { // halving steps
		ca.Rebalance()
		checkSum("idle decay")
	}
	if g := ca.Grants()["w1"]; g != 1 {
		t.Fatalf("idle node w1 holds %d, want floor of 1", g)
	}

	// Deterministic decision log: every entry stamped by the virtual clock.
	for _, d := range ca.Decisions() {
		if d.Time.Before(clock.Epoch) {
			t.Fatalf("decision stamped before the epoch: %v", d)
		}
	}
}

// TestNodeDemandShape: the report→demand mapping clamps and floors.
func TestNodeDemandShape(t *testing.T) {
	cases := []struct {
		rep  NodeReport
		want int
	}{
		{NodeReport{LP: 2, Active: 3, Queued: 10, MaxLP: 8}, 8}, // clamped to cap
		{NodeReport{LP: 2, Active: 3, Queued: 1, MaxLP: 8}, 4},  // active+queued
		{NodeReport{LP: 1, Active: 0, Queued: 0, MaxLP: 8}, 1},  // idle floor
		{NodeReport{LP: 4, Active: 9, Queued: 9, MaxLP: 0}, 18}, // uncapped
	}
	for i, c := range cases {
		d := NodeDemand(c.rep)
		if !d.Valid || d.DesiredLP != c.want {
			t.Fatalf("case %d: demand %+v, want DesiredLP %d", i, d, c.want)
		}
	}
}

// TestCapDemandClampsProbationShare: the probation clamp bounds both sides
// of a node demand so a re-admitted node cannot seize budget, with a floor
// of one worker.
func TestCapDemandClampsProbationShare(t *testing.T) {
	d := NodeDemand(NodeReport{LP: 6, Active: 4, Queued: 8, MaxLP: 16})
	capped := CapDemand(d, 2)
	if capped.DesiredLP != 2 || capped.CurrentLP != 2 {
		t.Fatalf("capped demand %+v, want CurrentLP=DesiredLP=2", capped)
	}
	if !capped.Valid {
		t.Fatal("capping must preserve validity")
	}

	// A demand already under the cap is untouched.
	small := NodeDemand(NodeReport{LP: 1, Active: 1, Queued: 0, MaxLP: 4})
	if got := CapDemand(small, 3); got != small {
		t.Fatalf("under-cap demand changed: %+v vs %+v", got, small)
	}

	// cap < 1 floors at one: probation never starves a node entirely.
	floored := CapDemand(d, 0)
	if floored.DesiredLP != 1 || floored.CurrentLP != 1 {
		t.Fatalf("floored demand %+v, want 1/1", floored)
	}
}
