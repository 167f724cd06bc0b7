// Distributed demonstrates the paper's §6 outlook: the same autonomic
// controller scaling a (simulated) cluster instead of a thread pool. A
// centralized coordinator ships every muscle to a worker node over a link
// with configurable one-way latency; when the WCT goal would be missed, the
// controller provisions more nodes mid-run, and decommissions them when the
// goal is safe. The cluster is internal/sim's multi-node mode, so the run
// takes virtual time: it is deterministic and finishes at once.
//
//	go run ./examples/distributed -goal 80ms -maxnodes 8 -link 200us
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"skandium/internal/core"
	"skandium/internal/estimate"
	"skandium/internal/event"
	"skandium/internal/muscle"
	"skandium/internal/sim"
	"skandium/internal/skel"
	"skandium/internal/statemachine"
)

func main() {
	goal := flag.Duration("goal", 80*time.Millisecond, "WCT QoS goal")
	maxNodes := flag.Int("maxnodes", 8, "maximum cluster size")
	link := flag.Duration("link", 200*time.Microsecond, "one-way coordinator-node link latency")
	work := flag.Duration("work", 6*time.Millisecond, "per-item compute time")
	flag.Parse()

	// The paper's two-level map shape with shared muscles.
	fs := muscle.NewSplit("fs", func(p any) ([]any, error) {
		out := make([]any, 4)
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
	inner := skel.NewMap(fs, skel.NewSeq(fe), fm)
	program := skel.NewMap(fs, inner, fm)
	fmt.Println("program:", program)
	fmt.Printf("cluster: 1 node initially, up to %d, link latency %v each way\n", *maxNodes, *link)

	// One worker thread per node; fe costs work, splits and merges are free.
	nodes := make([]sim.NodeSpec, *maxNodes)
	for i := range nodes {
		nodes[i] = sim.NodeSpec{Threads: 1, Link: *link}
	}
	costs := sim.CostFunc(func(m *muscle.Muscle, _ any) time.Duration {
		if m == fe {
			return *work
		}
		return 0
	})
	reg := event.NewRegistry()
	cluster := sim.NewEngine(sim.Config{Costs: costs, Nodes: nodes, LP: 1, MaxLP: *maxNodes, Events: reg})

	est := estimate.NewRegistry(estimate.DefaultRho)
	tracker := statemachine.NewTracker(est)
	ctl := core.NewController(core.Config{
		WCTGoal:          *goal,
		MaxLP:            *maxNodes,
		Policy:           core.PaperPolicy{Increase: core.IncreaseMinimal},
		AnalysisInterval: 10 * time.Millisecond,
		DecreaseHold:     15 * time.Millisecond,
	}, program, cluster, est, tracker, cluster.Clock())
	start := cluster.Now()
	ctl.SetStart(start)
	core.Attach(reg, tracker, ctl)

	res, makespan, err := cluster.Run(program, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("result %v in %v of virtual time (goal %v, 16 work items × %v sequential ≈ %v)\n",
		res, makespan, *goal, *work, 16**work)
	for _, d := range ctl.Decisions() {
		fmt.Printf("  t=%-10v nodes %d -> %d  (%s)\n", d.Time.Sub(start), d.OldLP, d.NewLP, d.Reason)
	}
}
