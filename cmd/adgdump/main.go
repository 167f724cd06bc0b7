// adgdump reproduces the paper's Fig. 1 and Fig. 2 worked example: the
// Activity Dependency Graph of map(fs, map(fs, seq(fe), fm), fm) with
// t(fs)=10, t(fe)=15, t(fm)=5, |fs|=3, snapshotted at WCT 70 during an
// LP=2 execution, under both scheduling strategies.
//
//	go run ./cmd/adgdump            # the paper's snapshot (t=70, LP=2)
//	go run ./cmd/adgdump -virtual   # the a-priori plan (nothing executed)
//	go run ./cmd/adgdump -plan      # the compiled program IR (internal/plan)
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"skandium/internal/adg"
	"skandium/internal/clock"
	"skandium/internal/estimate"
	"skandium/internal/event"
	"skandium/internal/muscle"
	"skandium/internal/plan"
	"skandium/internal/skel"
	"skandium/internal/statemachine"
)

func u(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }

func main() {
	virtual := flag.Bool("virtual", false, "plan the program a priori instead of the t=70 snapshot")
	lp := flag.Int("lp", 2, "limited-LP strategy thread count")
	dot := flag.Bool("dot", false, "emit Graphviz dot of the best-effort schedule and exit")
	showPlan := flag.Bool("plan", false, "print the compiled program IR shared by all engines and exit")
	flag.Parse()

	fs := muscle.NewSplit("fs", func(any) ([]any, error) { return nil, nil })
	fe := muscle.NewExecute("fe", func(p any) (any, error) { return p, nil })
	fm := muscle.NewMerge("fm", func([]any) (any, error) { return nil, nil })
	inner := skel.NewMap(fs, skel.NewSeq(fe), fm)
	outer := skel.NewMap(fs, inner, fm)

	if *showPlan {
		p, err := plan.Of(outer)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(p.Dump())
		return
	}

	est := estimate.NewRegistry(estimate.DefaultRho)
	est.InitDuration(fs.ID(), u(10))
	est.InitDuration(fe.ID(), u(15))
	est.InitDuration(fm.ID(), u(5))
	est.InitCard(fs.ID(), 3)

	fmt.Printf("program: %s\n", outer)
	fmt.Println("estimates: t(fs)=10  t(fe)=15  t(fm)=5  |fs|=3")

	builder := adg.Builder{Est: est}
	var g *adg.Graph
	var err error
	if *virtual {
		g, err = builder.BuildVirtual(outer, clock.Epoch)
	} else {
		tr := statemachine.NewTracker(est)
		replay(tr, outer, inner)
		g, err = builder.BuildLive(tr.Root(), clock.Epoch, clock.Epoch.Add(u(70)))
		fmt.Println("snapshot: WCT=70 during an LP=2 execution (paper Fig. 1)")
	}
	if err != nil {
		log.Fatal(err)
	}

	if *dot {
		g.ScheduleBestEffort()
		fmt.Print(g.DOT(time.Millisecond))
		return
	}

	g.ScheduleBestEffort()
	fmt.Println("\n=== best effort (infinite LP) ===")
	fmt.Print(g.Render(time.Millisecond))
	fmt.Printf("best-effort WCT: %v\n", g.WCT())
	fmt.Printf("optimal LP (timeline peak): %d\n", g.OptimalLP())
	fmt.Println("\ntimeline (Fig. 2, best effort):")
	g.ScheduleBestEffort()
	fmt.Print(g.RenderTimeline(time.Millisecond))

	g.ScheduleLimited(*lp)
	fmt.Printf("\n=== limited LP (%d threads) ===\n", *lp)
	fmt.Print(g.Render(time.Millisecond))
	fmt.Printf("limited-LP WCT: %v\n", g.WCT())
	fmt.Printf("\ntimeline (Fig. 2, limited LP %d):\n", *lp)
	fmt.Print(g.RenderTimeline(time.Millisecond))
}

// replay feeds the tracker the exact event history of the paper's example
// at WCT 70: outer split [0,10] (card 3), two inner maps done by 70 except
// the second merge, third inner split running since 65.
func replay(tr *statemachine.Tracker, outer, inner *skel.Node) {
	emit := func(nd *skel.Node, idx, parent int64, when event.When, where event.Where, ms, worker int, card int) {
		tr.Listener().Handler(&event.Event{
			Node: nd, Trace: []*skel.Node{nd}, Index: idx, Parent: parent,
			When: when, Where: where, Time: clock.Epoch.Add(u(ms)), Worker: worker, Card: card,
		})
	}
	emit(outer, 0, event.NoParent, event.Before, event.Skeleton, 0, 0, 0)
	emit(outer, 0, event.NoParent, event.Before, event.Split, 0, 0, 0)
	emit(outer, 0, event.NoParent, event.After, event.Split, 10, 0, 3)
	for b, idx := range []int64{1, 2} {
		emit(inner, idx, 0, event.Before, event.Skeleton, 10, b, 0)
		emit(inner, idx, 0, event.Before, event.Split, 10, b, 0)
		emit(inner, idx, 0, event.After, event.Split, 20, b, 3)
	}
	seq := inner.Children()[0]
	idx := int64(3)
	for round := 0; round < 3; round++ {
		for b, parent := range []int64{1, 2} {
			start := 20 + 15*round
			emit(seq, idx, parent, event.Before, event.Skeleton, start, b, 0)
			emit(seq, idx, parent, event.After, event.Skeleton, start+15, b, 0)
			idx++
		}
	}
	emit(inner, 1, 0, event.Before, event.Merge, 65, 0, 0)
	emit(inner, 1, 0, event.After, event.Merge, 70, 0, 0)
	emit(inner, 1, 0, event.After, event.Skeleton, 70, 0, 0)
	emit(inner, 9, 0, event.Before, event.Skeleton, 65, 1, 0)
	emit(inner, 9, 0, event.Before, event.Split, 65, 1, 0)
}
