// Benchmarks regenerating the paper's evaluation (one per figure, plus the
// ablations called out in DESIGN.md §5) and micro-benchmarks of the
// engine's hot paths. Figure benches run on the deterministic simulator —
// their custom metrics (makespan_s, peakLP, firstAdapt_s) are the numbers
// EXPERIMENTS.md compares against the paper; ns/op for those is just
// harness cost.
//
//	go test -bench=. -benchmem
package skandium

import (
	"testing"
	"time"

	"skandium/internal/adg"
	"skandium/internal/clock"
	"skandium/internal/core"
	"skandium/internal/estimate"
	"skandium/internal/event"
	"skandium/internal/muscle"
	"skandium/internal/paperexp"
	"skandium/internal/sim"
	"skandium/internal/skel"
	"skandium/internal/statemachine"
)

// --- Fig. 1 / Fig. 2: the ADG worked example -----------------------------------

type fig1 struct {
	outer, inner *skel.Node
	est          *estimate.Registry
	tr           *statemachine.Tracker
}

func newFig1() *fig1 {
	fs := muscle.NewSplit("fs", func(any) ([]any, error) { return nil, nil })
	fe := muscle.NewExecute("fe", func(p any) (any, error) { return p, nil })
	fm := muscle.NewMerge("fm", func([]any) (any, error) { return nil, nil })
	inner := skel.NewMap(fs, skel.NewSeq(fe), fm)
	outer := skel.NewMap(fs, inner, fm)
	est := estimate.NewRegistry(estimate.DefaultRho)
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	est.InitDuration(fs.ID(), ms(10))
	est.InitDuration(fe.ID(), ms(15))
	est.InitDuration(fm.ID(), ms(5))
	est.InitCard(fs.ID(), 3)
	f := &fig1{outer: outer, inner: inner, est: est, tr: statemachine.NewTracker(est)}
	f.replay()
	return f
}

// replay feeds the paper's exact history at WCT 70 (LP=2 execution).
func (f *fig1) replay() {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	emit := func(nd *skel.Node, idx, parent int64, when event.When, where event.Where, at, worker, card int) {
		f.tr.Listener().Handler(&event.Event{
			Node: nd, Trace: []*skel.Node{nd}, Index: idx, Parent: parent,
			When: when, Where: where, Time: clock.Epoch.Add(ms(at)), Worker: worker, Card: card,
		})
	}
	emit(f.outer, 0, event.NoParent, event.Before, event.Skeleton, 0, 0, 0)
	emit(f.outer, 0, event.NoParent, event.Before, event.Split, 0, 0, 0)
	emit(f.outer, 0, event.NoParent, event.After, event.Split, 10, 0, 3)
	for b, idx := range []int64{1, 2} {
		emit(f.inner, idx, 0, event.Before, event.Skeleton, 10, b, 0)
		emit(f.inner, idx, 0, event.Before, event.Split, 10, b, 0)
		emit(f.inner, idx, 0, event.After, event.Split, 20, b, 3)
	}
	seq := f.inner.Children()[0]
	idx := int64(3)
	for round := 0; round < 3; round++ {
		for b, parent := range []int64{1, 2} {
			start := 20 + 15*round
			emit(seq, idx, parent, event.Before, event.Skeleton, start, b, 0)
			emit(seq, idx, parent, event.After, event.Skeleton, start+15, b, 0)
			idx++
		}
	}
	emit(f.inner, 1, 0, event.Before, event.Merge, 65, 0, 0)
	emit(f.inner, 1, 0, event.After, event.Merge, 70, 0, 0)
	emit(f.inner, 1, 0, event.After, event.Skeleton, 70, 0, 0)
	emit(f.inner, 9, 0, event.Before, event.Skeleton, 65, 1, 0)
	emit(f.inner, 9, 0, event.Before, event.Split, 65, 1, 0)
}

// BenchmarkFig1ADG builds the live ADG of the paper's Fig. 1 snapshot and
// evaluates both strategies, asserting the paper's numbers (best-effort WCT
// 100, limited-LP(2) WCT 115).
func BenchmarkFig1ADG(b *testing.B) {
	f := newFig1()
	builder := adg.Builder{Est: f.est}
	now := clock.Epoch.Add(70 * time.Millisecond)
	var best, limited time.Duration
	for i := 0; i < b.N; i++ {
		g, err := builder.BuildLive(f.tr.Root(), clock.Epoch, now)
		if err != nil {
			b.Fatal(err)
		}
		g.ScheduleBestEffort()
		best = g.WCT()
		g.ScheduleLimited(2)
		limited = g.WCT()
	}
	if best != 100*time.Millisecond || limited != 115*time.Millisecond {
		b.Fatalf("fig1 mismatch: best=%v limited=%v", best, limited)
	}
	b.ReportMetric(best.Seconds()*1000, "bestEffortWCT_ms")
	b.ReportMetric(limited.Seconds()*1000, "limitedLP2WCT_ms")
}

// BenchmarkFig2Timeline computes the Fig. 2 timeline and the optimal LP
// (paper: 3, peaking during [75,90)).
func BenchmarkFig2Timeline(b *testing.B) {
	f := newFig1()
	builder := adg.Builder{Est: f.est}
	now := clock.Epoch.Add(70 * time.Millisecond)
	g, err := builder.BuildLive(f.tr.Root(), clock.Epoch, now)
	if err != nil {
		b.Fatal(err)
	}
	opt := 0
	for i := 0; i < b.N; i++ {
		opt = g.OptimalLP()
	}
	if opt != 3 {
		b.Fatalf("optimal LP = %d, want 3", opt)
	}
	b.ReportMetric(float64(opt), "optimalLP")
}

// --- Figs. 5-7: the evaluation scenarios ----------------------------------------

func benchScenario(b *testing.B, spec paperexp.Spec, minS, maxS float64) {
	var r *paperexp.Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = paperexp.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
	}
	got := r.Makespan.Seconds()
	if got < minS || got > maxS {
		b.Fatalf("makespan %.3fs outside expected [%.2f, %.2f]", got, minS, maxS)
	}
	b.ReportMetric(got, "makespan_s")
	b.ReportMetric(r.FirstAdapt.Seconds(), "firstAdapt_s")
	b.ReportMetric(float64(r.PeakLP), "peakLP")
	b.ReportMetric(float64(r.PeakActive), "peakActive")
	b.ReportMetric(float64(len(r.Decisions)), "decisions")
}

// BenchmarkSeqBaseline is the paper's stated sequential work: 12.5 s (we
// measure 12.61 s on the calibrated profile).
func BenchmarkSeqBaseline(b *testing.B) {
	var r *paperexp.Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = paperexp.RunFixedLP(paperexp.Spec{}, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Makespan.Seconds(), "makespan_s")
}

// BenchmarkFig5GoalNoInit: paper finish 9.3 s within [8.63, 9.54].
func BenchmarkFig5GoalNoInit(b *testing.B) {
	benchScenario(b, paperexp.Scenario1(), 8.6, 9.55)
}

// BenchmarkFig6GoalWithInit: paper adapts at 6.4 s and finishes at 8.4 s,
// earlier than Fig. 5.
func BenchmarkFig6GoalWithInit(b *testing.B) {
	benchScenario(b, paperexp.Scenario2(), 7.0, 9.5)
}

// BenchmarkFig7RelaxedGoal: paper peak LP 10 (< Fig. 5's 17), finish 10.6 s.
func BenchmarkFig7RelaxedGoal(b *testing.B) {
	benchScenario(b, paperexp.Scenario3(), 9.0, 10.5)
}

// BenchmarkDaCScenario is the second benchmark (paper §6: "more experiments
// are conducted on other benchmarks"): an autonomic divide-and-conquer
// mergesort whose structure the ADG must predict from |fc|/|fs| estimates.
// Sequential work 1.536 s; the 400 ms goal forces mid-run scaling.
func BenchmarkDaCScenario(b *testing.B) {
	var r *paperexp.DaCResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = paperexp.RunDaC(paperexp.DaCSpec{})
		if err != nil {
			b.Fatal(err)
		}
	}
	if !r.Sorted {
		b.Fatal("not sorted")
	}
	b.ReportMetric(r.Makespan.Seconds(), "makespan_s")
	b.ReportMetric(r.FirstAdapt.Seconds(), "firstAdapt_s")
	b.ReportMetric(float64(r.PeakLP), "peakLP")
}

// BenchmarkFarmThroughput sweeps LP over a simulated farm stream (32 jobs
// of 10 virtual ms): the classic skeleton throughput curve. makespan_ms
// must halve with each LP doubling until saturation.
func BenchmarkFarmThroughput(b *testing.B) {
	fe := muscle.NewExecute("job", func(p any) (any, error) { return p, nil })
	nd := skel.NewFarm(skel.NewSeq(fe))
	costs := simCostTable{fe.ID(): 10 * time.Millisecond}
	for _, lp := range []int{1, 2, 4, 8, 16} {
		b.Run(fmtInt("lp", lp), func(b *testing.B) {
			var makespan time.Duration
			for i := 0; i < b.N; i++ {
				eng := sim.NewEngine(sim.Config{Costs: costs, LP: lp})
				injs := make([]sim.Injection, 32)
				for j := range injs {
					injs[j] = sim.Injection{Param: j}
				}
				start := eng.Now()
				rs, err := eng.RunStream(nd, injs)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range rs {
					if r.End.Sub(start) > makespan {
						makespan = r.End.Sub(start)
					}
				}
			}
			b.ReportMetric(float64(makespan)/float64(time.Millisecond), "makespan_ms")
			b.ReportMetric(32.0/makespan.Seconds(), "jobs_per_s_virtual")
		})
	}
}

// simCostTable prices muscles by identity for benches.
type simCostTable map[muscle.ID]time.Duration

func (ct simCostTable) Cost(m *muscle.Muscle, _ any) time.Duration { return ct[m.ID()] }

// BenchmarkDaCBaseline is its fixed-LP(1) reference (1.536 s).
func BenchmarkDaCBaseline(b *testing.B) {
	var r *paperexp.DaCResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = paperexp.RunDaC(paperexp.DaCSpec{Goal: -1})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Makespan.Seconds(), "makespan_s")
}

// --- Ablations (DESIGN.md §5) ----------------------------------------------------

// BenchmarkAblationRho sweeps the estimator weight ρ under 15% duration
// noise: low ρ follows the stable tendency, high ρ chases the last sample
// (paper §4's discussion).
func BenchmarkAblationRho(b *testing.B) {
	for _, rho := range []float64{0.1, 0.3, 0.5, 0.7, 0.9, 1.0} {
		b.Run(fmtFloat("rho", rho), func(b *testing.B) {
			spec := paperexp.Scenario1()
			spec.Rho = rho
			spec.Jitter = 0.15
			var r *paperexp.Result
			var err error
			for i := 0; i < b.N; i++ {
				r, err = paperexp.Run(spec)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.Makespan.Seconds(), "makespan_s")
			b.ReportMetric(float64(len(r.Decisions)), "decisions")
			b.ReportMetric(float64(r.PeakLP), "peakLP")
		})
	}
}

// BenchmarkAblationDecrease compares the paper's halving decrease against
// never decreasing and exact-minimum decrease.
func BenchmarkAblationDecrease(b *testing.B) {
	for _, tc := range []struct {
		name string
		pol  core.DecreasePolicy
	}{{"halve", core.DecreaseHalve}, {"none", core.DecreaseNone}, {"exact", core.DecreaseExact}} {
		b.Run(tc.name, func(b *testing.B) {
			spec := paperexp.Scenario1()
			spec.Policy = core.PaperPolicy{Increase: core.IncreaseMinimal, Decrease: tc.pol}
			var r *paperexp.Result
			var err error
			for i := 0; i < b.N; i++ {
				r, err = paperexp.Run(spec)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.Makespan.Seconds(), "makespan_s")
			b.ReportMetric(float64(r.PeakLP), "peakLP")
			b.ReportMetric(lpTimeIntegral(r), "lpSeconds") // resource cost
		})
	}
}

// BenchmarkAblationIncrease compares jump-to-optimal (paper §4) against
// minimal-sufficient increase.
func BenchmarkAblationIncrease(b *testing.B) {
	for _, tc := range []struct {
		name string
		pol  core.IncreasePolicy
	}{{"optimal", core.IncreaseOptimal}, {"minimal", core.IncreaseMinimal}} {
		b.Run(tc.name, func(b *testing.B) {
			spec := paperexp.Scenario1()
			spec.Policy = core.PaperPolicy{Increase: tc.pol}
			var r *paperexp.Result
			var err error
			for i := 0; i < b.N; i++ {
				r, err = paperexp.Run(spec)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.Makespan.Seconds(), "makespan_s")
			b.ReportMetric(float64(r.PeakLP), "peakLP")
			b.ReportMetric(lpTimeIntegral(r), "lpSeconds")
		})
	}
}

// BenchmarkAblationMuscleSharing is the negative ablation behind the
// paper's Listing 1: cloned per-level muscles leave the completeness gate
// shut until the run ends (no adaptation, sequential finish), while shared
// muscles enable the 7.6 s analysis.
func BenchmarkAblationMuscleSharing(b *testing.B) {
	for _, tc := range []struct {
		name     string
		separate bool
	}{{"shared", false}, {"separate", true}} {
		b.Run(tc.name, func(b *testing.B) {
			spec := paperexp.Scenario1()
			spec.SeparateMuscles = tc.separate
			var r *paperexp.Result
			var err error
			for i := 0; i < b.N; i++ {
				r, err = paperexp.Run(spec)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.Makespan.Seconds(), "makespan_s")
			b.ReportMetric(float64(len(r.Decisions)), "decisions")
		})
	}
}

// BenchmarkPredictorCost isolates the cost of one fresh ADG prediction on
// the Fig. 1 snapshot.
func BenchmarkPredictorCost(b *testing.B) {
	b.Run("adg", func(b *testing.B) {
		f := newFig1()
		in := core.PredictorInput{
			Tracker: f.tr,
			Est:     f.est,
			Start:   clock.Epoch,
			Now:     clock.Epoch.Add(70 * time.Millisecond),
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pred, err := core.ADGPredictor{}.Predict(in)
			if err != nil {
				b.Fatal(err)
			}
			pred.LimitedEnd(2)
		}
	})
}

// BenchmarkAnalyzeSteady measures one controller analysis on a live 8×8
// two-level map (goal_grid's shape: 82 activities, LP 8, a third of the cells
// done, four running), alternating the two cases a running job produces:
// only the clock advanced (the analysis ticker) and one muscle's After was
// recorded (the estimates and the tree moved). Neither allocates.
func BenchmarkAnalyzeSteady(b *testing.B) {
	fs := muscle.NewSplit("fs", func(any) ([]any, error) { return nil, nil })
	fe := muscle.NewExecute("fe", func(p any) (any, error) { return p, nil })
	fm := muscle.NewMerge("fm", func([]any) (any, error) { return nil, nil })
	inner := skel.NewMap(fs, skel.NewSeq(fe), fm)
	outer := skel.NewMap(fs, inner, fm)
	cell := inner.Children()[0]
	est := estimate.NewRegistry(estimate.DefaultRho)
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	est.InitDuration(fs.ID(), us(100))
	est.InitDuration(fe.ID(), 10*time.Millisecond)
	est.InitDuration(fm.ID(), us(100))
	est.InitCard(fs.ID(), 8)
	tr := statemachine.NewTracker(est)
	emit := func(nd *skel.Node, idx, parent int64, when event.When, where event.Where, at time.Duration, card int) {
		tr.Listener().Handler(&event.Event{
			Node: nd, Trace: []*skel.Node{nd}, Index: idx, Parent: parent,
			When: when, Where: where, Time: clock.Epoch.Add(at), Card: card,
		})
	}
	// Both splits ran; the 64 cells run four at a time in 10 ms waves from
	// 0.2 ms. At now = 55.2 ms waves 0-4 are done, wave 5 is running.
	now := us(55200)
	emit(outer, 0, event.NoParent, event.Before, event.Skeleton, 0, 0)
	emit(outer, 0, event.NoParent, event.Before, event.Split, 0, 0)
	emit(outer, 0, event.NoParent, event.After, event.Split, us(100), 8)
	for i := int64(1); i <= 8; i++ {
		emit(inner, i, 0, event.Before, event.Skeleton, us(100), 0)
		emit(inner, i, 0, event.Before, event.Split, us(100), 0)
		emit(inner, i, 0, event.After, event.Split, us(200), 8)
	}
	cellAt := func(c int) (start, end time.Duration) {
		start = us(200) + time.Duration(c/4)*10*time.Millisecond
		return start, start + 10*time.Millisecond
	}
	for c := 0; c < 64; c++ {
		start, end := cellAt(c)
		if start > now {
			break
		}
		idx, parent := int64(9+c), int64(1+c/8)
		emit(cell, idx, parent, event.Before, event.Skeleton, start, 0)
		if end <= now {
			emit(cell, idx, parent, event.After, event.Skeleton, end, 0)
			if c%8 == 7 { // the inner map's last cell: merge and close it
				emit(inner, parent, 0, event.Before, event.Merge, end, 0)
				emit(inner, parent, 0, event.After, event.Merge, end+us(100), 0)
				emit(inner, parent, 0, event.After, event.Skeleton, end+us(100), 0)
			}
		}
	}
	// The goal is met at LP 8 and missed at 4: the paper rule holds.
	ctl := core.NewController(core.Config{WCTGoal: 130 * time.Millisecond},
		outer, fixedLever(8), est, tr, clock.NewVirtual(clock.Epoch))
	ctl.SetStart(clock.Epoch)
	// Cell 0 recorded again with its own times: the versions move, nothing
	// else does.
	start0, end0 := cellAt(0)
	rerun := []event.Event{
		{Node: cell, Trace: []*skel.Node{cell}, Index: 9, Parent: 1,
			When: event.Before, Where: event.Skeleton, Time: clock.Epoch.Add(start0)},
		{Node: cell, Trace: []*skel.Node{cell}, Index: 9, Parent: 1,
			When: event.After, Where: event.Skeleton, Time: clock.Epoch.Add(end0)},
	}
	listener := tr.Listener()
	step := func(i int) {
		at := now
		if i%2 == 1 {
			at += time.Millisecond // only the clock moved
		} else {
			listener.Handler(&rerun[0])
			listener.Handler(&rerun[1])
		}
		if !ctl.Analyze(clock.Epoch.Add(at)) {
			b.Fatal("analysis did not run")
		}
	}
	step(0)
	step(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
	b.StopTimer()
	if d := ctl.Decisions(); len(d) != 0 {
		b.Fatalf("steady state adapted: %v", d)
	}
}

// fixedLever is an LP lever that stays where it is.
type fixedLever int

func (l fixedLever) LP() int { return int(l) }
func (fixedLever) SetLP(int) {}

// BenchmarkAnalysisOverhead sweeps the analysis throttle: more frequent
// analyses react faster but cost controller time (paper §6 lists analyzing
// estimation overhead as future work).
func BenchmarkAnalysisOverhead(b *testing.B) {
	for _, iv := range []time.Duration{0, 50 * time.Millisecond, 200 * time.Millisecond, time.Second} {
		b.Run(iv.String(), func(b *testing.B) {
			spec := paperexp.Scenario1()
			spec.AnalysisInterval = iv
			var r *paperexp.Result
			var err error
			for i := 0; i < b.N; i++ {
				r, err = paperexp.Run(spec)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(r.Analyses), "analyses")
			b.ReportMetric(r.Makespan.Seconds(), "makespan_s")
		})
	}
}

// lpTimeIntegral approximates ∫ LP dt in LP-seconds — the resource the
// decrease policy is supposed to save.
func lpTimeIntegral(r *paperexp.Result) float64 {
	samples := r.Recorder.Samples()
	total := 0.0
	for i := 1; i < len(samples); i++ {
		dt := samples[i].T.Sub(samples[i-1].T).Seconds()
		total += float64(samples[i-1].LP) * dt
	}
	return total
}

// --- engine micro-benchmarks ------------------------------------------------------

// BenchmarkEventOverhead measures the real engine's per-input cost of the
// event layer: no listeners vs a generic listener vs a filtered-out
// listener (ablation C).
func BenchmarkEventOverhead(b *testing.B) {
	mkStream := func(opts ...Option) *Stream[int, int] {
		id := NewExec("id", func(n int) (int, error) { return n, nil })
		fs := NewSplit("fs", func(n int) ([]int, error) {
			out := make([]int, 8)
			for i := range out {
				out[i] = i
			}
			return out, nil
		})
		fm := NewMerge("fm", func(ps []int) (int, error) { return len(ps), nil })
		return NewStream[int, int](Map(fs, Seq(id), fm), append(opts, WithLP(2))...)
	}
	b.Run("no-listener", func(b *testing.B) {
		st := mkStream()
		defer st.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := st.Do(8); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("generic-listener", func(b *testing.B) {
		st := mkStream(WithListener(ListenerFunc(func(e *Event) any { return e.Param })))
		defer st.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := st.Do(8); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("filtered-listener", func(b *testing.B) {
		st := mkStream(WithListener(ListenerFunc(func(e *Event) any { return e.Param }),
			Filter{Where: AtMerge, HasWhere: true}))
		defer st.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := st.Do(8); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEngineFanout measures raw task fan-out throughput of the pool
// (tasks created, scheduled and merged per op).
func BenchmarkEngineFanout(b *testing.B) {
	for _, width := range []int{1, 16, 256} {
		b.Run(fmtInt("width", width), func(b *testing.B) {
			fs := NewSplit("fs", func(n int) ([]int, error) {
				out := make([]int, n)
				for i := range out {
					out[i] = i
				}
				return out, nil
			})
			id := NewExec("id", func(n int) (int, error) { return n, nil })
			fm := NewMerge("fm", func(ps []int) (int, error) { return len(ps), nil })
			st := NewStream[int, int](Map(fs, Seq(id), fm), WithLP(4))
			defer st.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res, err := st.Do(width); err != nil || res != width {
					b.Fatalf("res=%v err=%v", res, err)
				}
			}
			b.ReportMetric(float64(width), "tasks/op")
		})
	}
}

// BenchmarkADGBuildSchedule measures analysis cost vs problem size: the
// controller runs this on the worker's critical path.
func BenchmarkADGBuildSchedule(b *testing.B) {
	for _, card := range []int{10, 100, 1000} {
		b.Run(fmtInt("card", card), func(b *testing.B) {
			fs := muscle.NewSplit("fs", func(any) ([]any, error) { return nil, nil })
			fe := muscle.NewExecute("fe", func(p any) (any, error) { return p, nil })
			fm := muscle.NewMerge("fm", func([]any) (any, error) { return nil, nil })
			node := skel.NewMap(fs, skel.NewSeq(fe), fm)
			est := estimate.NewRegistry(estimate.DefaultRho)
			est.InitDuration(fs.ID(), time.Millisecond)
			est.InitDuration(fe.ID(), time.Millisecond)
			est.InitDuration(fm.ID(), time.Millisecond)
			est.InitCard(fs.ID(), float64(card))
			builder := adg.Builder{Est: est}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g, err := builder.BuildVirtual(node, clock.Epoch)
				if err != nil {
					b.Fatal(err)
				}
				g.ScheduleBestEffort()
				g.ScheduleLimited(8)
			}
		})
	}
}

// rebalanceMember is an arbiter member with a fixed wish.
type rebalanceMember struct{ d core.Demand }

func (m *rebalanceMember) Demand() core.Demand { return m.d }
func (m *rebalanceMember) Grant(int)           {}

// BenchmarkArbiterRebalance times one Arbiter.Rebalance over m members of 4
// tenants weighted 1 to 4, whose wishes are twice the budget, so every
// tenant's group contracts every round: the shape of the core.rebalance
// probe in bench/.
func BenchmarkArbiterRebalance(b *testing.B) {
	for _, m := range []int{16, 1024} {
		b.Run(fmtInt("members", m), func(b *testing.B) {
			arb := core.NewArbiter(2*m, nil)
			tenants := []string{"alpha", "beta", "gamma", "delta"}
			for i, t := range tenants {
				arb.SetTenantWeight(t, i+1)
			}
			for i := 0; i < m; i++ {
				d := core.Demand{
					Valid: true, CurrentLP: 2, DesiredLP: 4, OptimalLP: 4, Goal: time.Second,
					Overshoot: time.Duration(i%7-3) * 10 * time.Millisecond,
				}
				if err := arb.AdmitFor(fmtInt("job", i), tenants[i%len(tenants)], &rebalanceMember{d}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				arb.Rebalance()
			}
		})
	}
}

// BenchmarkMultiNodeSim runs a 32-cell map on simulated clusters of equal
// total thread count but different shapes: one fat node with no link cost
// versus progressively thinner nodes paying 2×Link per shipped muscle. The
// makespan spread is the price of distribution the coordinator's arbiter
// has to weigh (DESIGN.md §11).
func BenchmarkMultiNodeSim(b *testing.B) {
	cases := []struct {
		name  string
		nodes []sim.NodeSpec
	}{
		{"1n8t-link0", []sim.NodeSpec{{Threads: 8}}},
		{"2n4t-link2ms", []sim.NodeSpec{
			{Threads: 4, Link: 2 * time.Millisecond},
			{Threads: 4, Link: 2 * time.Millisecond},
		}},
		{"4n2t-link2ms", []sim.NodeSpec{
			{Threads: 2, Link: 2 * time.Millisecond},
			{Threads: 2, Link: 2 * time.Millisecond},
			{Threads: 2, Link: 2 * time.Millisecond},
			{Threads: 2, Link: 2 * time.Millisecond},
		}},
		{"8n1t-link5ms", []sim.NodeSpec{
			{Threads: 1, Link: 5 * time.Millisecond}, {Threads: 1, Link: 5 * time.Millisecond},
			{Threads: 1, Link: 5 * time.Millisecond}, {Threads: 1, Link: 5 * time.Millisecond},
			{Threads: 1, Link: 5 * time.Millisecond}, {Threads: 1, Link: 5 * time.Millisecond},
			{Threads: 1, Link: 5 * time.Millisecond}, {Threads: 1, Link: 5 * time.Millisecond},
		}},
	}
	fs := muscle.NewSplit("cells", func(p any) ([]any, error) {
		out := make([]any, p.(int))
		for i := range out {
			out[i] = i
		}
		return out, nil
	})
	fe := muscle.NewExecute("cell", func(p any) (any, error) { return p, nil })
	fm := muscle.NewMerge("gather", func(ps []any) (any, error) { return len(ps), nil })
	nd := skel.NewMap(fs, skel.NewSeq(fe), fm)
	costs := simCostTable{fs.ID(): 2 * time.Millisecond, fe.ID(): 20 * time.Millisecond, fm.ID(): 2 * time.Millisecond}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var makespan time.Duration
			for i := 0; i < b.N; i++ {
				eng := sim.NewEngine(sim.Config{Costs: costs, Nodes: tc.nodes, LP: len(tc.nodes)})
				res, ms, err := eng.Run(nd, 32)
				if err != nil {
					b.Fatal(err)
				}
				if res != 32 {
					b.Fatalf("result %v, want 32", res)
				}
				makespan = ms
			}
			b.ReportMetric(float64(makespan)/float64(time.Millisecond), "makespan_ms")
		})
	}
}

// BenchmarkSimThroughput measures virtual events processed per second by
// the discrete-event substrate.
func BenchmarkSimThroughput(b *testing.B) {
	spec := paperexp.Scenario1()
	for i := 0; i < b.N; i++ {
		if _, err := paperexp.Run(spec); err != nil {
			b.Fatal(err)
		}
	}
}

func fmtInt(k string, v int) string { return k + "=" + itoa(v) }
func fmtFloat(k string, v float64) string {
	return k + "=" + itoa(int(v*100)) + "pct"
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
