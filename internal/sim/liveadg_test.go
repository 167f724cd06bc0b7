package sim

import (
	"math/rand"
	"testing"
	"time"

	"skandium/internal/adg"
	"skandium/internal/estimate"
	"skandium/internal/event"
	"skandium/internal/muscle"
	"skandium/internal/skel"
	"skandium/internal/statemachine"
)

// TestLiveADGConsistency builds an ADG at *every* After event of live
// simulated executions (once the estimates are complete) and checks the
// structural and scheduling invariants each time:
//
//   - the graph is a valid DAG (topological order, no forward preds),
//   - best-effort and limited schedules respect dependencies and caps,
//   - limited-LP WCT is monotone in LP and bounded below by best effort,
//   - the graph never predicts completion before "now".
//
// This is the deepest integration property: tracker state machines, the
// builder's live/virtual mixing and both schedulers must agree at every
// instant of real executions, not just at hand-picked snapshots.
func TestLiveADGConsistency(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		est := estimate.NewRegistry(estimate.DefaultRho)
		program := randomLiveProgram(rng, est)
		reqDur, reqCard := adg.RequiredEstimates(program)

		reg := event.NewRegistry()
		tracker := statemachine.NewTracker(est)
		reg.Add(tracker.Listener())

		costs := CostFunc(func(m *muscle.Muscle, _ any) time.Duration {
			// Deterministic per-muscle-id cost in [1,8]ms.
			return time.Duration(1+int(m.ID())%8) * time.Millisecond
		})
		eng := NewEngine(Config{Costs: costs, LP: 2, Events: reg})

		analyses := 0
		builder := adg.Builder{Est: est, Budget: 5000}
		reg.Add(event.Func(func(e *event.Event) any {
			if e.When != event.After || !est.Complete(reqDur, reqCard) {
				return e.Param
			}
			root := tracker.Root()
			if root == nil {
				return e.Param
			}
			g, err := builder.BuildLive(root, eng.StartTime(), e.Time)
			if err != nil {
				return e.Param // estimates incomplete for unfolded parts
			}
			analyses++
			if err := g.Validate(); err != nil {
				t.Fatalf("seed %d (%s) at %v: %v", seed, program, e.Time, err)
			}
			g.ScheduleBestEffort()
			if err := g.CheckSchedule(0); err != nil {
				t.Fatalf("seed %d best effort: %v", seed, err)
			}
			best := g.WCT()
			if g.EndTime().Before(e.Time) {
				t.Fatalf("seed %d: predicted end %v before now %v", seed, g.EndTime(), e.Time)
			}
			prev := time.Duration(-1)
			for _, lp := range []int{1, 2, 4} {
				g.ScheduleLimited(lp)
				if err := g.CheckSchedule(lp); err != nil {
					t.Fatalf("seed %d lp %d: %v", seed, lp, err)
				}
				wct := g.WCT()
				if wct < best {
					t.Fatalf("seed %d lp %d: %v beats best effort %v", seed, lp, wct, best)
				}
				if prev >= 0 && wct > prev {
					t.Fatalf("seed %d: limited WCT grew %v -> %v at lp %d", seed, prev, wct, lp)
				}
				prev = wct
			}
			return e.Param
		}))

		if _, _, err := eng.Run(program, 1); err != nil {
			t.Fatalf("seed %d (%s): %v", seed, program, err)
		}
		if analyses == 0 {
			t.Logf("seed %d (%s): estimates never completed mid-run (single-shot muscles)", seed, program)
		}
	}
}

// randomLiveProgram builds a program whose muscles recur enough for
// estimates to complete mid-run: nested maps with shared muscles and
// optional while/dac around them.
func randomLiveProgram(rng *rand.Rand, est *estimate.Registry) *skel.Node {
	fs := muscle.NewSplit("fs", func(p any) ([]any, error) {
		out := make([]any, 3)
		for i := range out {
			out[i] = i + 1
		}
		return out, nil
	})
	fe := muscle.NewExecute("fe", func(p any) (any, error) { return p, nil })
	fm := muscle.NewMerge("fm", func(ps []any) (any, error) { return len(ps), nil })
	_ = est
	inner := skel.NewMap(fs, skel.NewSeq(fe), fm)
	program := skel.NewMap(fs, inner, fm)
	switch rng.Intn(3) {
	case 0:
		return program
	case 1:
		return skel.NewFor(2, skel.NewFarm(program))
	default:
		fc := muscle.NewCondition("lt3", func(p any) (bool, error) { return p.(int) < 3, nil })
		// |fc| is only observed when the while closes; seed it so analyses
		// can run mid-loop (the paper's initialization mechanism).
		est.InitCard(fc.ID(), 2)
		body := skel.NewPipe(program, skel.NewSeq(muscle.NewExecute("bump", func(p any) (any, error) {
			return p.(int) + 1, nil
		})))
		return skel.NewWhile(fc, body)
	}
}
