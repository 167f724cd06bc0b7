package sim

import (
	"errors"
	"sync"
	"testing"
	"time"

	"skandium/internal/clock"
	"skandium/internal/core"
	"skandium/internal/estimate"
	"skandium/internal/event"
	"skandium/internal/exec"
	"skandium/internal/muscle"
	"skandium/internal/skel"
	"skandium/internal/statemachine"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// table-driven cost model by muscle identity.
type costTable map[muscle.ID]time.Duration

func (ct costTable) Cost(m *muscle.Muscle, _ any) time.Duration { return ct[m.ID()] }

// buildMapProgram returns map(fs, seq(fe), fm) splitting an int n into n
// unit work items, summing doubled values, plus its muscles.
func buildMapProgram() (*skel.Node, *muscle.Muscle, *muscle.Muscle, *muscle.Muscle) {
	fs := muscle.NewSplit("fs", func(p any) ([]any, error) {
		n := p.(int)
		out := make([]any, n)
		for i := range out {
			out[i] = i
		}
		return out, nil
	})
	fe := muscle.NewExecute("fe", func(p any) (any, error) { return p.(int) * 2, nil })
	fm := muscle.NewMerge("fm", func(ps []any) (any, error) {
		s := 0
		for _, p := range ps {
			s += p.(int)
		}
		return s, nil
	})
	return skel.NewMap(fs, skel.NewSeq(fe), fm), fs, fe, fm
}

func TestSimMapResultAndMakespan(t *testing.T) {
	nd, fs, fe, fm := buildMapProgram()
	costs := costTable{fs.ID(): ms(10), fe.ID(): ms(20), fm.ID(): ms(5)}
	cases := []struct {
		lp   int
		want time.Duration
	}{
		{1, ms(95)},  // 10 + 4*20 + 5
		{2, ms(55)},  // 10 + 2*20 + 5
		{4, ms(35)},  // 10 + 20 + 5
		{16, ms(35)}, // more LP than work: no further gain
	}
	for _, tc := range cases {
		eng := NewEngine(Config{Costs: costs, LP: tc.lp})
		res, makespan, err := eng.Run(nd, 4)
		if err != nil {
			t.Fatalf("lp=%d: %v", tc.lp, err)
		}
		if res != 12 { // 2*(0+1+2+3)
			t.Fatalf("lp=%d: result %v, want 12", tc.lp, res)
		}
		if makespan != tc.want {
			t.Fatalf("lp=%d: makespan %v, want %v", tc.lp, makespan, tc.want)
		}
	}
}

func TestSimZeroCardinality(t *testing.T) {
	nd, fs, fe, fm := buildMapProgram()
	costs := costTable{fs.ID(): ms(10), fe.ID(): ms(20), fm.ID(): ms(5)}
	eng := NewEngine(Config{Costs: costs, LP: 2})
	res, makespan, err := eng.Run(nd, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res != 0 {
		t.Fatalf("result %v, want 0", res)
	}
	if makespan != ms(15) {
		t.Fatalf("makespan %v, want 15ms", makespan)
	}
}

func TestSimMuscleError(t *testing.T) {
	boom := errors.New("boom")
	fe := muscle.NewExecute("boom", func(any) (any, error) { return nil, boom })
	nd := skel.NewSeq(fe)
	eng := NewEngine(Config{Costs: costTable{fe.ID(): ms(1)}})
	_, _, err := eng.Run(nd, 1)
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	var me *exec.MuscleError
	if !errors.As(err, &me) {
		t.Fatalf("want MuscleError, got %T", err)
	}
}

// sig is a substrate-independent event signature.
type sig struct {
	kind   skel.Kind
	when   event.When
	where  event.Where
	card   int
	cond   bool
	branch int
	iter   int
}

func collectSim(t *testing.T, nd *skel.Node, param any, costs CostModel) []sig {
	t.Helper()
	reg := event.NewRegistry()
	var sigs []sig
	reg.Add(event.Func(func(e *event.Event) any {
		sigs = append(sigs, sig{e.Node.Kind(), e.When, e.Where, e.Card, e.Cond, e.Branch, e.Iter})
		return e.Param
	}))
	eng := NewEngine(Config{Costs: costs, LP: 1, Events: reg})
	if _, _, err := eng.Run(nd, param); err != nil {
		t.Fatal(err)
	}
	return sigs
}

func collectExec(t *testing.T, nd *skel.Node, param any) []sig {
	t.Helper()
	reg := event.NewRegistry()
	var mu sync.Mutex
	var sigs []sig
	reg.Add(event.Func(func(e *event.Event) any {
		mu.Lock()
		sigs = append(sigs, sig{e.Node.Kind(), e.When, e.Where, e.Card, e.Cond, e.Branch, e.Iter})
		mu.Unlock()
		return e.Param
	}))
	pool := exec.NewPool(clock.System, 1, 0)
	defer pool.Close()
	root := exec.NewRoot(pool, reg, nil)
	if _, err := root.Start(nd, param).Get(); err != nil {
		t.Fatal(err)
	}
	return sigs
}

// TestSimExecEventEquivalence: at LP=1 both substrates must produce the
// identical event stream for a program covering every skeleton kind.
func TestSimExecEventEquivalence(t *testing.T) {
	fs := muscle.NewSplit("fs", func(p any) ([]any, error) {
		n := p.(int)
		out := make([]any, 3)
		for i := range out {
			out[i] = n + i
		}
		return out, nil
	})
	fe := muscle.NewExecute("fe", func(p any) (any, error) { return p.(int) + 1, nil })
	fm := muscle.NewMerge("fm", func(ps []any) (any, error) {
		s := 0
		for _, p := range ps {
			s += p.(int)
		}
		return s, nil
	})
	fcPos := muscle.NewCondition("small", func(p any) (bool, error) { return p.(int) < 40, nil })
	fcIf := muscle.NewCondition("even", func(p any) (bool, error) { return p.(int)%2 == 0, nil })
	fcDac := muscle.NewCondition("deep", func(p any) (bool, error) { return p.(int) > 10, nil })
	fsHalf := muscle.NewSplit("half", func(p any) ([]any, error) {
		n := p.(int)
		return []any{n / 2, n - n/2}, nil
	})

	program := skel.NewPipe(
		skel.NewFarm(skel.NewSeq(fe)),
		skel.NewWhile(fcPos, skel.NewSeq(fe)),
		skel.NewIf(fcIf, skel.NewSeq(fe), skel.NewFor(2, skel.NewSeq(fe))),
		skel.NewMap(fs, skel.NewSeq(fe), fm),
		skel.NewDaC(fcDac, fsHalf, skel.NewSeq(fe), fm),
		skel.NewFork(fsHalf, []*skel.Node{skel.NewSeq(fe), skel.NewSeq(fe)}, fm),
	)
	unit := costTable{}
	for _, m := range []*muscle.Muscle{fs, fe, fm, fcPos, fcIf, fcDac, fsHalf} {
		unit[m.ID()] = ms(1)
	}
	simSigs := collectSim(t, program, 7, unit)
	execSigs := collectExec(t, program, 7)
	if len(simSigs) != len(execSigs) {
		t.Fatalf("event counts differ: sim=%d exec=%d", len(simSigs), len(execSigs))
	}
	for i := range simSigs {
		if simSigs[i] != execSigs[i] {
			t.Fatalf("event %d differs: sim=%+v exec=%+v", i, simSigs[i], execSigs[i])
		}
	}
	if len(simSigs) == 0 {
		t.Fatal("no events recorded")
	}
}

// TestSimExecResultEquivalence: random-ish inputs through both substrates.
func TestSimExecResultEquivalence(t *testing.T) {
	nd, fs, fe, fm := buildMapProgram()
	costs := costTable{fs.ID(): ms(1), fe.ID(): ms(1), fm.ID(): ms(1)}
	for n := 0; n <= 9; n++ {
		eng := NewEngine(Config{Costs: costs, LP: 3})
		simRes, _, err := eng.Run(nd, n)
		if err != nil {
			t.Fatal(err)
		}
		pool := exec.NewPool(clock.System, 3, 0)
		root := exec.NewRoot(pool, nil, nil)
		execRes, err := root.Start(nd, n).Get()
		pool.Close()
		if err != nil {
			t.Fatal(err)
		}
		if simRes != execRes {
			t.Fatalf("n=%d: sim=%v exec=%v", n, simRes, execRes)
		}
	}
}

// TestSimGauge: the gauge observes active muscle executions bounded by LP.
func TestSimGauge(t *testing.T) {
	nd, fs, fe, fm := buildMapProgram()
	costs := costTable{fs.ID(): ms(10), fe.ID(): ms(20), fm.ID(): ms(5)}
	peak := 0
	eng := NewEngine(Config{Costs: costs, LP: 3, Gauge: func(_ time.Time, active, lp int) {
		if active > peak {
			peak = active
		}
		if active > lp {
			t.Errorf("active %d exceeds lp %d", active, lp)
		}
	}})
	if _, _, err := eng.Run(nd, 9); err != nil {
		t.Fatal(err)
	}
	if peak != 3 {
		t.Fatalf("peak active = %d, want 3", peak)
	}
}

// TestSimControllerAdapts: the full autonomic loop on the simulator. A
// paper-shaped program (two nested maps) with a WCT goal half the
// sequential time must trigger LP increases and finish within the goal.
func TestSimControllerAdapts(t *testing.T) {
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
	// Like the paper's program, both map levels share the merge muscle, so
	// after the first inner merge every muscle has been observed once and
	// the first analysis can run mid-execution.
	fmBoth := muscle.NewMerge("fm", func(ps []any) (any, error) { return len(ps), nil })
	inner := skel.NewMap(fsI, skel.NewSeq(fe), fmBoth)
	outer := skel.NewMap(fsO, inner, fmBoth)
	costs := costTable{fsO.ID(): ms(10), fsI.ID(): ms(5), fe.ID(): ms(10), fmBoth.ID(): ms(2)}
	// Sequential: 10 + 4*(5+30+2) + 2 = 160ms. Goal: 100ms.

	reg := event.NewRegistry()
	est := estimate.NewRegistry(estimate.DefaultRho)
	tracker := statemachine.NewTracker(est)
	eng := NewEngine(Config{Costs: costs, LP: 1, MaxLP: 24, Events: reg})
	ctl := core.NewController(core.Config{WCTGoal: ms(100), MaxLP: 24},
		outer, eng, est, tracker, eng.Clock())
	ctl.SetStart(eng.Now())
	core.Attach(reg, tracker, ctl)

	_, makespan, err := eng.Run(outer, 0)
	if err != nil {
		t.Fatal(err)
	}
	decisions := ctl.Decisions()
	if len(decisions) == 0 {
		t.Fatal("controller never adapted")
	}
	if decisions[0].NewLP <= decisions[0].OldLP {
		t.Fatalf("first decision did not increase LP: %v", decisions[0])
	}
	// First analysis possible only once every muscle ran once: after the
	// first inner merge at 10+5+30+2 = 47ms.
	if at := decisions[0].Time.Sub(clock.Epoch); at != ms(47) {
		t.Fatalf("first adaptation at %v, want 47ms", at)
	}
	if makespan > ms(100) {
		t.Fatalf("makespan %v misses the 100ms goal (decisions: %v)", makespan, decisions)
	}
	if makespan >= ms(160) {
		t.Fatalf("makespan %v not better than sequential", makespan)
	}
	if ctl.Analyses() == 0 {
		t.Fatal("no analyses recorded")
	}
}

// TestSimControllerNoGoalNoAdaptation: without a WCT goal the controller
// never touches LP.
func TestSimControllerNoGoalNoAdaptation(t *testing.T) {
	nd, fs, fe, fm := buildMapProgram()
	costs := costTable{fs.ID(): ms(10), fe.ID(): ms(20), fm.ID(): ms(5)}
	reg := event.NewRegistry()
	est := estimate.NewRegistry(estimate.DefaultRho)
	tracker := statemachine.NewTracker(est)
	eng := NewEngine(Config{Costs: costs, LP: 2, Events: reg})
	ctl := core.NewController(core.Config{}, nd, eng, est, tracker, eng.Clock())
	core.Attach(reg, tracker, ctl)
	if _, _, err := eng.Run(nd, 6); err != nil {
		t.Fatal(err)
	}
	if len(ctl.Decisions()) != 0 {
		t.Fatalf("unexpected decisions: %v", ctl.Decisions())
	}
	if eng.LP() != 2 {
		t.Fatalf("LP changed to %d", eng.LP())
	}
}

// TestSimLPDecrease: an over-provisioned run with a loose goal halves LP.
func TestSimLPDecrease(t *testing.T) {
	// for-loop of maps so analyses happen between iterations. The merge
	// returns the incoming cardinality so every iteration splits 4 ways.
	fs := muscle.NewSplit("fs", func(p any) ([]any, error) {
		out := make([]any, p.(int))
		for i := range out {
			out[i] = i
		}
		return out, nil
	})
	fe := muscle.NewExecute("fe", func(p any) (any, error) { return p, nil })
	fm := muscle.NewMerge("fm", func(ps []any) (any, error) { return len(ps), nil })
	loop := skel.NewFor(6, skel.NewMap(fs, skel.NewSeq(fe), fm))
	costs := costTable{fs.ID(): ms(5), fe.ID(): ms(10), fm.ID(): ms(2)}
	// One iteration sequential: 5+4*10+2 = 47; six iterations: 282ms.
	reg := event.NewRegistry()
	est := estimate.NewRegistry(estimate.DefaultRho)
	tracker := statemachine.NewTracker(est)
	eng := NewEngine(Config{Costs: costs, LP: 16, MaxLP: 24, Events: reg})
	ctl := core.NewController(core.Config{WCTGoal: ms(400), MaxLP: 24},
		loop, eng, est, tracker, eng.Clock())
	ctl.SetStart(eng.Now())
	core.Attach(reg, tracker, ctl)
	if _, _, err := eng.Run(loop, 4); err != nil {
		t.Fatal(err)
	}
	var halved bool
	for _, d := range ctl.Decisions() {
		if d.NewLP < d.OldLP {
			halved = true
			if d.NewLP != d.OldLP/2 {
				t.Fatalf("decrease is not halving: %v", d)
			}
		}
	}
	if !halved {
		t.Fatalf("expected at least one halving decision, got %v", ctl.Decisions())
	}
	if eng.LP() >= 16 {
		t.Fatalf("LP never decreased: %d", eng.LP())
	}
}
