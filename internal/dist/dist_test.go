// Package dist held the goroutine-per-node cluster model; its code is gone
// and the one cluster model is internal/sim's multi-node mode
// (sim.Config.Nodes). These tests keep the cluster behaviours it was
// checked for — execution across nodes, link latency, node scaling, the
// controller provisioning nodes, virtual-clock shipping and the compiled
// program seam — pinned against that model, in virtual time.
package dist

import (
	"testing"
	"time"

	"skandium/internal/core"
	"skandium/internal/estimate"
	"skandium/internal/event"
	"skandium/internal/muscle"
	"skandium/internal/plan"
	"skandium/internal/sim"
	"skandium/internal/skel"
	"skandium/internal/statemachine"
)

// wordcountish builds map(split into card items, seq(fe), sum) and a cost
// model in which fe takes work and the split and merge are free.
func wordcountish(work time.Duration, card int) (*skel.Node, sim.CostModel) {
	fs := muscle.NewSplit("fs", func(p any) ([]any, error) {
		out := make([]any, card)
		for i := range out {
			out[i] = i
		}
		return out, nil
	})
	fe := muscle.NewExecute("fe", func(p any) (any, error) { return 1, nil })
	fm := muscle.NewMerge("fm", func(ps []any) (any, error) {
		s := 0
		for _, p := range ps {
			s += p.(int)
		}
		return s, nil
	})
	costs := sim.CostFunc(func(m *muscle.Muscle, _ any) time.Duration {
		if m == fe {
			return work
		}
		return 0
	})
	return skel.NewMap(fs, skel.NewSeq(fe), fm), costs
}

// cluster returns n single-threaded nodes behind a link of the given
// one-way latency.
func cluster(n int, link time.Duration) []sim.NodeSpec {
	nodes := make([]sim.NodeSpec, n)
	for i := range nodes {
		nodes[i] = sim.NodeSpec{Threads: 1, Link: link}
	}
	return nodes
}

func TestClusterExecutes(t *testing.T) {
	nd, costs := wordcountish(time.Millisecond, 6)
	link := 100 * time.Microsecond
	busy := make([]bool, 3)
	var eng *sim.Engine
	gauge := func(time.Time, int, int) {
		for i, n := range eng.NodeOccupancy() {
			if n > 0 {
				busy[i] = true
			}
		}
	}
	eng = sim.NewEngine(sim.Config{Costs: costs, Nodes: cluster(3, link), LP: 3, MaxLP: 3, Gauge: gauge})
	res, makespan, err := eng.Run(nd, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res != 6 {
		t.Fatalf("result %v, want 6", res)
	}
	for i, b := range busy {
		if !b {
			t.Fatalf("node %d never ran a muscle", i)
		}
	}
	// split(2 links) + 6 items × (1ms + 2 links) on 3 nodes (2 waves) +
	// merge(2 links).
	if want := 2*link + 2*(time.Millisecond+2*link) + 2*link; makespan != want {
		t.Fatalf("makespan %v, want %v", makespan, want)
	}
}

func TestShipLatencySlowsExecution(t *testing.T) {
	nd, costs := wordcountish(0, 4)
	fast := sim.NewEngine(sim.Config{Costs: costs, Nodes: cluster(1, 0), LP: 1})
	_, local, err := fast.Run(nd, 0)
	if err != nil {
		t.Fatal(err)
	}

	slow := sim.NewEngine(sim.Config{Costs: costs, Nodes: cluster(1, 3*time.Millisecond), LP: 1})
	_, remote, err := slow.Run(nd, 0)
	if err != nil {
		t.Fatal(err)
	}
	if remote < local+10*time.Millisecond {
		t.Fatalf("shipping latency not paid: local %v, remote %v", local, remote)
	}
}

func TestNodesScaleThroughput(t *testing.T) {
	nd, costs := wordcountish(4*time.Millisecond, 8)
	run := func(nodes int) time.Duration {
		eng := sim.NewEngine(sim.Config{Costs: costs, Nodes: cluster(nodes, 0), LP: nodes, MaxLP: nodes})
		_, makespan, err := eng.Run(nd, 0)
		if err != nil {
			t.Fatal(err)
		}
		return makespan
	}
	one := run(1)  // 32ms of work
	four := run(4) // 8ms of work
	if four >= one {
		t.Fatalf("4 nodes (%v) not faster than 1 node (%v)", four, one)
	}
}

// TestAutonomicClusterScaling: the unchanged WCT controller provisions
// extra nodes mid-run — the paper's distributed adaptation, centralised.
func TestAutonomicClusterScaling(t *testing.T) {
	fs := muscle.NewSplit("fs", func(p any) ([]any, error) {
		out := make([]any, 4)
		for i := range out {
			out[i] = i
		}
		return out, nil
	})
	fe := muscle.NewExecute("fe", func(p any) (any, error) { return 1, nil })
	fm := muscle.NewMerge("fm", func(ps []any) (any, error) { return len(ps), nil })
	inner := skel.NewMap(fs, skel.NewSeq(fe), fm)
	outer := skel.NewMap(fs, inner, fm)
	costs := sim.CostFunc(func(m *muscle.Muscle, _ any) time.Duration {
		if m == fe {
			return 6 * time.Millisecond
		}
		return 0
	})
	// Sequential: 16 × 6ms = 96ms (+ instant splits). Goal: 60ms.

	reg := event.NewRegistry()
	eng := sim.NewEngine(sim.Config{Costs: costs, Nodes: cluster(8, 0), LP: 1, MaxLP: 8, Events: reg})
	est := estimate.NewRegistry(estimate.DefaultRho)
	tracker := statemachine.NewTracker(est)
	ctl := core.NewController(core.Config{WCTGoal: 60 * time.Millisecond, MaxLP: 8},
		outer, eng, est, tracker, eng.Clock())
	ctl.SetStart(eng.Now())
	core.Attach(reg, tracker, ctl)

	res, elapsed, err := eng.Run(outer, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res != 4 {
		t.Fatalf("result %v, want 4", res)
	}
	if len(ctl.Decisions()) == 0 {
		t.Fatal("controller never provisioned nodes")
	}
	grew := false
	for _, d := range ctl.Decisions() {
		if d.NewLP > d.OldLP {
			grew = true
		}
	}
	if !grew {
		t.Fatalf("no node increase: %v", ctl.Decisions())
	}
	if elapsed >= 95*time.Millisecond {
		t.Fatalf("autonomic cluster no faster than sequential: %v", elapsed)
	}
}

// TestCompiledProgramSeam: a coordinator compiles the program once and
// injects inputs through the compiled-program entry; results match Run.
func TestCompiledProgramSeam(t *testing.T) {
	nd, costs := wordcountish(100*time.Microsecond, 5)

	prog, err := plan.Of(nd)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Node() != nd {
		t.Fatal("compiled program not rooted at the source node")
	}
	// Compile is cached on the node: recompiling yields the same program.
	again, err := plan.Of(nd)
	if err != nil {
		t.Fatal(err)
	}
	if again != prog {
		t.Fatal("recompiling the same node built a second program")
	}

	viaProgram, err := sim.NewEngine(sim.Config{Costs: costs, Nodes: cluster(2, 0), LP: 2}).
		RunStreamProgram(prog, []sim.Injection{{Param: 0}})
	if err != nil {
		t.Fatal(err)
	}
	viaStart, _, err := sim.NewEngine(sim.Config{Costs: costs, Nodes: cluster(2, 0), LP: 2}).Run(nd, 0)
	if err != nil {
		t.Fatal(err)
	}
	if viaProgram[0].Result != viaStart || viaStart != 5 {
		t.Fatalf("RunStreamProgram=%v Run=%v, want both 5", viaProgram[0].Result, viaStart)
	}
}

// TestVirtualClockShipLatency: the shipping delay goes through the
// simulation's virtual clock, so a cluster with an hour of one-way latency
// completes in real milliseconds while the virtual clock pays the full
// round trips.
func TestVirtualClockShipLatency(t *testing.T) {
	nd, costs := wordcountish(0, 4) // instant muscles: only shipping costs
	ship := time.Hour
	eng := sim.NewEngine(sim.Config{Costs: costs, Nodes: cluster(2, ship), LP: 2})

	start := time.Now()
	res, _, err := eng.Run(nd, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res != 4 {
		t.Fatalf("result %v, want 4", res)
	}
	if wall := time.Since(start); wall > 30*time.Second {
		t.Fatalf("virtual shipping burned %v of wall time", wall)
	}
	// Every dispatched muscle pays two one-way ships on the virtual clock.
	if adv := eng.Now().Sub(eng.StartTime()); adv < 2*ship {
		t.Fatalf("virtual clock advanced only %v, want >= %v", adv, 2*ship)
	}
}
