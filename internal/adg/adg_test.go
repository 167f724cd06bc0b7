package adg

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"skandium/internal/clock"
	"skandium/internal/estimate"
	"skandium/internal/event"
	"skandium/internal/muscle"
	"skandium/internal/skel"
	"skandium/internal/statemachine"
)

// mkMuscles builds one muscle of each flavour with initialized estimates.
func mkMuscles(est *estimate.Registry, tFe, tFs, tFm, tFc time.Duration, card float64) (fe, fs, fm, fc *muscle.Muscle) {
	fe = muscle.NewExecute("fe", func(p any) (any, error) { return p, nil })
	fs = muscle.NewSplit("fs", func(p any) ([]any, error) { return nil, nil })
	fm = muscle.NewMerge("fm", func(p []any) (any, error) { return nil, nil })
	fc = muscle.NewCondition("fc", func(p any) (bool, error) { return false, nil })
	est.InitDuration(fe.ID(), tFe)
	est.InitDuration(fs.ID(), tFs)
	est.InitDuration(fm.ID(), tFm)
	est.InitDuration(fc.ID(), tFc)
	est.InitCard(fs.ID(), card)
	est.InitCard(fc.ID(), card)
	return
}

// --- virtual builds per kind -----------------------------------------------------

func TestVirtualWhile(t *testing.T) {
	est := estimate.NewRegistry(estimate.DefaultRho)
	fe, _, _, fc := mkMuscles(est, u(10), 0, 0, u(2), 3)
	nd := skel.NewWhile(fc, skel.NewSeq(fe))
	g, err := Builder{Est: est}.BuildVirtual(nd, clock.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	// 3 iterations: (cond+body)*3 + final cond = 4 conds + 3 bodies.
	if g.Len() != 7 {
		t.Fatalf("activities = %d, want 7", g.Len())
	}
	g.ScheduleBestEffort()
	// Strictly sequential: 4*2 + 3*10 = 38.
	if wct := g.WCT(); wct != u(38) {
		t.Fatalf("WCT = %v, want 38ms", wct)
	}
	// A while has no internal parallelism: limited(1) equals best effort.
	g.ScheduleLimited(1)
	if wct := g.WCT(); wct != u(38) {
		t.Fatalf("limited(1) WCT = %v, want 38ms", wct)
	}
}

func TestVirtualFor(t *testing.T) {
	est := estimate.NewRegistry(estimate.DefaultRho)
	fe, _, _, _ := mkMuscles(est, u(10), 0, 0, 0, 0)
	nd := skel.NewFor(4, skel.NewSeq(fe))
	g, err := Builder{Est: est}.BuildVirtual(nd, clock.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	g.ScheduleBestEffort()
	if wct := g.WCT(); wct != u(40) {
		t.Fatalf("WCT = %v, want 40ms", wct)
	}
}

func TestVirtualPipeFarm(t *testing.T) {
	est := estimate.NewRegistry(estimate.DefaultRho)
	fe, _, _, _ := mkMuscles(est, u(10), 0, 0, 0, 0)
	nd := skel.NewPipe(skel.NewSeq(fe), skel.NewFarm(skel.NewSeq(fe)))
	g, err := Builder{Est: est}.BuildVirtual(nd, clock.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	g.ScheduleBestEffort()
	if wct := g.WCT(); wct != u(20) {
		t.Fatalf("WCT = %v, want 20ms", wct)
	}
}

func TestVirtualIfWorstCaseBranch(t *testing.T) {
	est := estimate.NewRegistry(estimate.DefaultRho)
	feShort, _, _, fc := mkMuscles(est, u(5), 0, 0, u(1), 0)
	feLong := muscle.NewExecute("long", func(p any) (any, error) { return p, nil })
	est.InitDuration(feLong.ID(), u(50))
	nd := skel.NewIf(fc, skel.NewSeq(feShort), skel.NewSeq(feLong))
	g, err := Builder{Est: est}.BuildVirtual(nd, clock.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	g.ScheduleBestEffort()
	// cond 1ms + worst branch 50ms.
	if wct := g.WCT(); wct != u(51) {
		t.Fatalf("WCT = %v, want 51ms (worst-case branch)", wct)
	}
}

func TestVirtualDaC(t *testing.T) {
	est := estimate.NewRegistry(estimate.DefaultRho)
	fe, fs, fm, fc := mkMuscles(est, u(8), u(2), u(3), u(1), 2)
	nd := skel.NewDaC(fc, fs, skel.NewSeq(fe), fm)
	g, err := Builder{Est: est}.BuildVirtual(nd, clock.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	g.ScheduleBestEffort()
	// Depth 2, branching 2: level0 cond+split, level1 2×(cond+split),
	// level2 4×(cond+leaf), merges back. Critical path:
	// 1+2 + 1+2 + 1+8 + 3 + 3 = 21.
	if wct := g.WCT(); wct != u(21) {
		t.Fatalf("WCT = %v, want 21ms", wct)
	}
	// 4 leaves in parallel at the deepest level.
	if lp := g.OptimalLP(); lp != 4 {
		t.Fatalf("optimal LP = %d, want 4", lp)
	}
}

// TestBudgetCollapse: past the budget a build collapses what is left into
// lumps, on both entry points. A map of 100 collapses most of its
// sub-problems. Then, at every budget up to a full build, loops and a d&c
// inside a fan-out, built virtually and from a part-run map, must give a
// valid DAG that schedules legally, stays within a few activities of its
// budget and has no redundant edge: every expansion leaves its exit set
// where it found the stack, so a branch cut short inside a loop hands the
// merge its lump alone.
func TestBudgetCollapse(t *testing.T) {
	est := estimate.NewRegistry(estimate.DefaultRho)
	fe, fs, fm, _ := mkMuscles(est, u(1), u(1), u(1), 0, 100)
	nd := skel.NewMap(fs, skel.NewSeq(fe), fm)
	g, err := Builder{Est: est, Budget: 10}.BuildVirtual(nd, clock.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() > 12 {
		t.Fatalf("budget ignored: %d activities", g.Len())
	}
	collapsed := false
	for i, a := range g.Acts {
		if label := g.Label(i); g.Muscle(i) == nil && len(label) > 0 && label[0] == '~' {
			collapsed = true
			if a.Dur <= 0 {
				t.Fatal("collapsed activity has no duration")
			}
		}
	}
	if !collapsed {
		t.Fatal("no collapsed activity found")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}

	w := newLiveWorld()
	fe, fs, fm, fc := mkMuscles(w.est, u(1), u(2), u(3), u(1), 3)
	leaf := skel.NewSeq(fe)
	virtual := func(nd *skel.Node) func(Builder) (*Graph, error) {
		return func(b Builder) (*Graph, error) { return b.BuildVirtual(nd, clock.Epoch) }
	}
	// A map of three 4-iteration fors: branch 0 done, branch 1 half run,
	// branch 2 not started.
	run := skel.NewMap(fs, skel.NewFor(4, leaf), fm)
	loop := run.Children()[0]
	w.emit(run, 0, event.NoParent, event.Before, event.Skeleton, 0, nil)
	w.emit(run, 0, event.NoParent, event.Before, event.Split, 0, nil)
	w.emit(run, 0, event.NoParent, event.After, event.Split, 2, func(e *event.Event) { e.Card = 3 })
	idx, ms := int64(1), 2
	for b, iters := range []int{4, 2} {
		w.emit(run, 0, event.NoParent, event.Before, event.NestedSkel, ms, func(e *event.Event) { e.Branch = b })
		parent := idx
		w.emit(loop, parent, 0, event.Before, event.Skeleton, ms, nil)
		idx++
		for i := 0; i < iters; i++ {
			w.emit(loop, parent, 0, event.Before, event.NestedSkel, ms, func(e *event.Event) { e.Iter = i })
			w.emit(leaf, idx, parent, event.Before, event.Skeleton, ms, nil)
			if b == 0 || i == 0 {
				w.emit(leaf, idx, parent, event.After, event.Skeleton, ms+1, nil)
			}
			idx, ms = idx+1, ms+1
		}
		if b == 0 {
			w.emit(loop, parent, 0, event.After, event.Skeleton, ms, nil)
		}
	}
	cases := []struct {
		name  string
		build func(Builder) (*Graph, error)
	}{
		{"for in map", virtual(skel.NewMap(fs, skel.NewFor(4, leaf), fm))},
		{"while in map", virtual(skel.NewMap(fs, skel.NewWhile(fc, leaf), fm))},
		{"d&c in map", virtual(skel.NewMap(fs, skel.NewDaC(fc, fs, leaf, fm), fm))},
		{"part-run map of fors", func(b Builder) (*Graph, error) {
			return b.BuildLive(w.tr.Root(), clock.Epoch, clock.Epoch.Add(u(ms)))
		}},
	}
	for _, c := range cases {
		full, err := c.build(Builder{Est: w.est})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for budget := 1; budget <= full.Len(); budget++ {
			g, err := c.build(Builder{Est: w.est, Budget: budget})
			if err == nil {
				err = checkCollapsed(g, budget)
			}
			if err != nil {
				t.Fatalf("%s at budget %d of %d: %v\n%s", c.name, budget, full.Len(), err, g.Render(time.Millisecond))
			}
		}
	}
}

// checkCollapsed checks a graph built at the given budget: a valid DAG whose
// schedules respect their predecessors and LP, at most a few activities past
// the budget, and no predecessor listed twice or already reached through
// another predecessor.
func checkCollapsed(g *Graph, budget int) error {
	if err := g.Validate(); err != nil {
		return err
	}
	g.ScheduleBestEffort()
	if err := g.CheckSchedule(0); err != nil {
		return err
	}
	g.ScheduleLimited(2)
	if err := g.CheckSchedule(2); err != nil {
		return err
	}
	// Each of up to four open levels may close with a lump and a merge, and
	// the deepest d&c adds its condition and split past the budget.
	if g.Len() > budget+10 {
		return fmt.Errorf("%d activities", g.Len())
	}
	reach := make([][]bool, g.Len()) // reach[i][j]: #j precedes #i
	for i := range g.Acts {
		reach[i] = make([]bool, g.Len())
		preds := g.Preds(i)
		for a, p := range preds {
			for b, q := range preds {
				if a != b && (p == q || reach[q][p]) {
					return fmt.Errorf("#%d lists #%d, which #%d already follows", i, p, q)
				}
			}
			reach[i][p] = true
			for j, r := range reach[p] {
				reach[i][j] = reach[i][j] || r
			}
		}
	}
	return nil
}

// --- SeqEstimate -------------------------------------------------------------------

func TestSeqEstimateAllKinds(t *testing.T) {
	est := estimate.NewRegistry(estimate.DefaultRho)
	fe, fs, fm, fc := mkMuscles(est, u(10), u(2), u(3), u(1), 2)
	leaf := skel.NewSeq(fe)
	cases := []struct {
		nd   *skel.Node
		want time.Duration
	}{
		{leaf, u(10)},
		{skel.NewFarm(leaf), u(10)},
		{skel.NewPipe(leaf, leaf), u(20)},
		{skel.NewFor(3, leaf), u(30)},
		{skel.NewWhile(fc, leaf), u(23)},                        // 3 conds + 2 bodies
		{skel.NewIf(fc, leaf, skel.NewFor(2, leaf)), u(21)},     // cond + max(10,20)
		{skel.NewMap(fs, leaf, fm), u(25)},                      // 2 + 2*10 + 3
		{skel.NewFork(fs, []*skel.Node{leaf, leaf}, fm), u(25)}, // 2 + 10+10 + 3
		{skel.NewDaC(fc, fs, leaf, fm), u(1+2) + 2*u(1+2) + 4*u(1+10) + 2*u(3) + u(3)},
	}
	for _, tc := range cases {
		got, err := SeqEstimate(est, tc.nd)
		if err != nil {
			t.Errorf("%s: %v", tc.nd, err)
			continue
		}
		if got != tc.want {
			t.Errorf("%s: got %v, want %v", tc.nd, got, tc.want)
		}
	}
}

// TestEstimatesMissingRules: work needs |fs| and span does not; a missing
// t(m) fails both, and each error names the muscle and what it lacks. The
// graph walk fails on the same muscle: the first branch stops at t(b), and
// the branches after it expand to nothing.
func TestEstimatesMissingRules(t *testing.T) {
	fs := muscle.NewSplit("fs", func(p any) ([]any, error) { return nil, nil })
	a := muscle.NewExecute("a", func(p any) (any, error) { return p, nil })
	b := muscle.NewExecute("b", func(p any) (any, error) { return p, nil })
	fm := muscle.NewMerge("fm", func(p []any) (any, error) { return nil, nil })
	nd := skel.NewMap(fs, skel.NewPipe(skel.NewSeq(a), skel.NewSeq(b)), fm)
	registry := func(withCard, withB bool) *estimate.Registry {
		est := estimate.NewRegistry(estimate.DefaultRho)
		est.InitDuration(fs.ID(), u(10))
		est.InitDuration(a.ID(), u(15))
		if withB {
			est.InitDuration(b.ID(), u(5))
		}
		est.InitDuration(fm.ID(), u(5))
		if withCard {
			est.InitCard(fs.ID(), 3)
		}
		return est
	}
	incomplete := func(err error, m *muscle.Muscle, card bool) bool {
		var ie *IncompleteError
		return errors.As(err, &ie) && ie.Muscle == m && ie.Card == card
	}

	est := registry(true, true)
	if w, err := SeqEstimate(est, nd); err != nil || w != u(75) { // 10 + 3·(15+5) + 5
		t.Fatalf("work = %v (%v), want 75ms", w, err)
	}
	if s, err := SpanEstimate(est, nd); err != nil || s != u(35) { // 10 + (15+5) + 5
		t.Fatalf("span = %v (%v), want 35ms", s, err)
	}

	est = registry(false, true)
	if _, err := SeqEstimate(est, nd); !incomplete(err, fs, true) {
		t.Fatalf("work without |fs|: %v", err)
	}
	if s, err := SpanEstimate(est, nd); err != nil || s != u(35) {
		t.Fatalf("span without |fs| = %v (%v), want 35ms", s, err)
	}

	est = registry(true, false)
	if _, err := SeqEstimate(est, nd); !incomplete(err, b, false) {
		t.Fatalf("work without t(b): %v", err)
	}
	if _, err := SpanEstimate(est, nd); !incomplete(err, b, false) {
		t.Fatalf("span without t(b): %v", err)
	}
	_, err := Builder{Est: est}.BuildVirtual(nd, clock.Epoch)
	if !incomplete(err, b, false) || err.Error() != "adg: no t(m) estimate for muscle "+b.String()+" yet" {
		t.Fatalf("graph without t(b): %v", err)
	}
}

// SeqEstimate must equal the limited(1) schedule of the virtual graph.
func TestSeqEstimateMatchesLimited1(t *testing.T) {
	est := estimate.NewRegistry(estimate.DefaultRho)
	fe, fs, fm, fc := mkMuscles(est, u(7), u(2), u(3), u(1), 3)
	leaf := skel.NewSeq(fe)
	programs := []*skel.Node{
		skel.NewMap(fs, leaf, fm),
		skel.NewMap(fs, skel.NewMap(fs, leaf, fm), fm),
		skel.NewPipe(leaf, skel.NewMap(fs, leaf, fm)),
		skel.NewWhile(fc, skel.NewMap(fs, leaf, fm)),
		skel.NewDaC(fc, fs, leaf, fm),
	}
	for _, nd := range programs {
		analytic, err := SeqEstimate(est, nd)
		if err != nil {
			t.Fatalf("%s: %v", nd, err)
		}
		g, err := Builder{Est: est}.BuildVirtual(nd, clock.Epoch)
		if err != nil {
			t.Fatalf("%s: %v", nd, err)
		}
		g.ScheduleLimited(1)
		if got := g.WCT(); got != analytic {
			t.Errorf("%s: limited(1)=%v analytic=%v", nd, got, analytic)
		}
	}
}

// --- scheduling properties over random programs ------------------------------------

// randomProgram builds a random skeleton tree (bounded size) with
// initialized estimates.
func randomProgram(rng *rand.Rand, est *estimate.Registry, depth int) *skel.Node {
	fe := muscle.NewExecute("fe", func(p any) (any, error) { return p, nil })
	est.InitDuration(fe.ID(), time.Duration(1+rng.Intn(20))*time.Millisecond)
	leaf := skel.NewSeq(fe)
	if depth <= 0 {
		return leaf
	}
	switch rng.Intn(7) {
	case 0:
		return leaf
	case 1:
		return skel.NewFarm(randomProgram(rng, est, depth-1))
	case 2:
		return skel.NewPipe(randomProgram(rng, est, depth-1), randomProgram(rng, est, depth-1))
	case 3:
		return skel.NewFor(1+rng.Intn(3), randomProgram(rng, est, depth-1))
	case 4:
		fc := muscle.NewCondition("fc", func(p any) (bool, error) { return false, nil })
		est.InitDuration(fc.ID(), time.Duration(1+rng.Intn(3))*time.Millisecond)
		est.InitCard(fc.ID(), float64(rng.Intn(4)))
		return skel.NewWhile(fc, randomProgram(rng, est, depth-1))
	case 5:
		fs := muscle.NewSplit("fs", func(p any) ([]any, error) { return nil, nil })
		fm := muscle.NewMerge("fm", func(p []any) (any, error) { return nil, nil })
		est.InitDuration(fs.ID(), time.Duration(1+rng.Intn(5))*time.Millisecond)
		est.InitDuration(fm.ID(), time.Duration(1+rng.Intn(5))*time.Millisecond)
		est.InitCard(fs.ID(), float64(1+rng.Intn(5)))
		return skel.NewMap(fs, randomProgram(rng, est, depth-1), fm)
	default:
		fc := muscle.NewCondition("fc", func(p any) (bool, error) { return false, nil })
		fs := muscle.NewSplit("fs", func(p any) ([]any, error) { return nil, nil })
		fm := muscle.NewMerge("fm", func(p []any) (any, error) { return nil, nil })
		est.InitDuration(fc.ID(), time.Millisecond)
		est.InitDuration(fs.ID(), time.Millisecond)
		est.InitDuration(fm.ID(), time.Millisecond)
		est.InitCard(fc.ID(), float64(1+rng.Intn(2)))
		est.InitCard(fs.ID(), float64(1+rng.Intn(2)))
		return skel.NewDaC(fc, fs, randomProgram(rng, est, depth-1), fm)
	}
}

// TestScheduleProperties: for random programs and LPs —
//  1. the graph is a valid DAG,
//  2. every schedule respects dependencies and the LP cap,
//  3. limited-LP WCT is non-increasing in LP,
//  4. best effort is a lower bound on every limited schedule,
//  5. limited(1) equals the total work (no idling on a tree).
func TestScheduleProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		est := estimate.NewRegistry(estimate.DefaultRho)
		nd := randomProgram(rng, est, 2+rng.Intn(2))
		g, err := Builder{Est: est, Budget: 3000}.BuildVirtual(nd, clock.Epoch)
		if err != nil {
			t.Logf("seed %d: build: %v", seed, err)
			return false
		}
		if err := g.Validate(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		g.ScheduleBestEffort()
		if err := g.CheckSchedule(0); err != nil {
			t.Logf("seed %d best effort: %v", seed, err)
			return false
		}
		best := g.WCT()
		prev := time.Duration(-1)
		for lp := 1; lp <= 8; lp++ {
			g.ScheduleLimited(lp)
			if err := g.CheckSchedule(lp); err != nil {
				t.Logf("seed %d lp %d: %v", seed, lp, err)
				return false
			}
			wct := g.WCT()
			if wct < best {
				t.Logf("seed %d lp %d: %v beats best effort %v", seed, lp, wct, best)
				return false
			}
			if prev >= 0 && wct > prev {
				t.Logf("seed %d: WCT increased %v -> %v at lp %d", seed, prev, wct, lp)
				return false
			}
			prev = wct
		}
		g.ScheduleLimited(1)
		var total time.Duration
		for _, a := range g.Acts {
			total += a.Dur
		}
		if g.WCT() != total {
			t.Logf("seed %d: limited(1) %v != total work %v", seed, g.WCT(), total)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestOptimalLPAchievesBestEffort: scheduling limited at the optimal LP
// must reach the best-effort WCT (for all-pending graphs).
func TestOptimalLPAchievesBestEffort(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		est := estimate.NewRegistry(estimate.DefaultRho)
		nd := randomProgram(rng, est, 2)
		g, err := Builder{Est: est, Budget: 3000}.BuildVirtual(nd, clock.Epoch)
		if err != nil {
			return false
		}
		g.ScheduleBestEffort()
		best := g.WCT()
		opt := g.OptimalLP()
		g.ScheduleLimited(opt)
		return g.WCT() == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestMinLPForGoalMinimality: the returned LP meets the deadline and LP-1
// does not.
func TestMinLPForGoalMinimality(t *testing.T) {
	f := func(seed int64, slackPct uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		est := estimate.NewRegistry(estimate.DefaultRho)
		nd := randomProgram(rng, est, 2)
		g, err := Builder{Est: est, Budget: 3000}.BuildVirtual(nd, clock.Epoch)
		if err != nil {
			return false
		}
		g.ScheduleBestEffort()
		best := g.WCT()
		// A deadline between best effort and 2x best effort.
		deadline := clock.Epoch.Add(best + time.Duration(slackPct%100)*best/100)
		lp, ok := g.MinLPForGoal(deadline, 64)
		if !ok {
			return false // must be feasible: deadline >= best effort
		}
		g.ScheduleLimited(lp)
		if g.EndTime().After(deadline) {
			return false
		}
		if lp > 1 {
			g.ScheduleLimited(lp - 1)
			if !g.EndTime().After(deadline) {
				return false // not minimal
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// --- timeline helpers ---------------------------------------------------------------

func TestTimelineAndPeak(t *testing.T) {
	mk := func(ti, tf int) Activity {
		return Activity{Dur: u(tf - ti), ActualStart: u(ti), ActualEnd: u(tf), state: Done}
	}
	g := &Graph{Start: clock.Epoch, Now: clock.Epoch.Add(u(100)),
		Acts: []Activity{mk(0, 10), mk(5, 15), mk(5, 8), mk(20, 30)}}
	g.ScheduleBestEffort()
	// levels: [0,5)=1 [5,8)=3 [8,10)=2 [10,15)=1 [15,20)=0 [20,30)=1 [30..)=0
	want := []Step{{0, 1}, {u(5), 3}, {u(8), 2}, {u(10), 1}, {u(15), 0}, {u(20), 1}, {u(30), 0}}
	if steps := g.Timeline(); !slices.Equal(steps, want) {
		t.Fatalf("timeline %v, want %v", steps, want)
	}
	for from, want := range map[int]int{0: 3, 9: 2, 16: 1, 30: 0} {
		if got := g.Peak(clock.Epoch.Add(u(from))); got != want {
			t.Errorf("peak from %d = %d, want %d", from, got, want)
		}
	}
}

func TestZeroDurationActivitiesIgnoredInTimeline(t *testing.T) {
	g := &Graph{Start: clock.Epoch, Now: clock.Epoch, Acts: []Activity{{state: Pending}}}
	g.ScheduleBestEffort()
	if steps := g.Timeline(); len(steps) != 0 {
		t.Fatalf("zero-duration produced steps: %v", steps)
	}
}

// --- live builds beyond Fig. 1 -------------------------------------------------------

func TestLiveWhileMidIteration(t *testing.T) {
	est := estimate.NewRegistry(estimate.DefaultRho)
	fe, _, _, fc := mkMuscles(est, u(10), 0, 0, u(2), 4)
	nd := skel.NewWhile(fc, skel.NewSeq(fe))
	tr := newTrackerWithWhileHistory(t, est, nd)
	g, err := Builder{Est: est}.BuildLive(tr, clock.Epoch, clock.Epoch.Add(u(17)))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	g.ScheduleBestEffort()
	// History: cond[0,2] true, body[2,12], cond[12,14] true, body running
	// since 14 (ends 24 est). Future per |fc|=4: 2 more iterations
	// (cond+body) + final cond: 24 + (2+10)*2 + 2 = 50.
	if wct := g.WCT(); wct != u(50) {
		t.Fatalf("WCT = %v, want 50ms\n%s", wct, g.Render(time.Millisecond))
	}
}

// newTrackerWithWhileHistory replays: two true condition checks, one
// complete body, one body running at t=17.
func newTrackerWithWhileHistory(t *testing.T, est *estimate.Registry, nd *skel.Node) *statemachine.Instance {
	t.Helper()
	tr := statemachine.NewTracker(est)
	emit := func(n *skel.Node, idx, parent int64, when event.When, where event.Where, ms, iter int, cond bool) {
		tr.Listener().Handler(&event.Event{
			Node: n, Trace: []*skel.Node{n}, Index: idx, Parent: parent,
			When: when, Where: where, Time: clock.Epoch.Add(u(ms)),
			Iter: iter, Cond: cond,
		})
	}
	seq := nd.Children()[0]
	emit(nd, 0, event.NoParent, event.Before, event.Skeleton, 0, 0, false)
	emit(nd, 0, event.NoParent, event.Before, event.Condition, 0, 0, false)
	emit(nd, 0, event.NoParent, event.After, event.Condition, 2, 0, true)
	emit(seq, 1, 0, event.Before, event.Skeleton, 2, 0, false)
	emit(seq, 1, 0, event.After, event.Skeleton, 12, 0, false)
	emit(nd, 0, event.NoParent, event.Before, event.Condition, 12, 1, false)
	emit(nd, 0, event.NoParent, event.After, event.Condition, 14, 1, true)
	emit(seq, 2, 0, event.Before, event.Skeleton, 14, 0, false)
	return tr.Root()
}

// TestLimitedLateFinishedPredecessor: a predecessor whose recorded end lies
// after the analysis instant — a worker recorded its After between the
// analysis reading the clock and snapshotting the tree — is in flight at
// Now: it holds a slot until its end, then releases its successors instead
// of stranding them unscheduled.
func TestLimitedLateFinishedPredecessor(t *testing.T) {
	w := newLiveWorld()
	fa := muscle.NewExecute("a", func(p any) (any, error) { return p, nil })
	fb := muscle.NewExecute("b", func(p any) (any, error) { return p, nil })
	nd := skel.NewPipe(skel.NewSeq(fa), skel.NewSeq(fb))
	w.est.InitDuration(fa.ID(), u(3))
	w.est.InitDuration(fb.ID(), u(20))
	// a ran over [8, 11]; the analysis instant is 10.
	w.emit(nd, 0, event.NoParent, event.Before, event.Skeleton, 8, nil)
	w.emit(nd.Children()[0], 1, 0, event.Before, event.Skeleton, 8, nil)
	w.emit(nd.Children()[0], 1, 0, event.After, event.Skeleton, 11, nil)

	g := w.graph(t, 10)
	g.ScheduleBestEffort()
	if wct := g.WCT(); wct != u(31) {
		t.Fatalf("best effort WCT %v, want 31ms\n%s", wct, g.Render(time.Millisecond))
	}
	for _, lp := range []int{1, 2} {
		g.ScheduleLimited(lp)
		if err := g.CheckSchedule(lp); err != nil {
			t.Fatal(err)
		}
		if b := g.Acts[1]; g.WCT() != u(31) || b.TI != u(11) || b.TF != u(31) {
			t.Fatalf("limited(%d): WCT %v, b over [%v, %v], want 31ms and [11ms, 31ms]\n%s",
				lp, g.WCT(), b.TI, b.TF, g.Render(time.Millisecond))
		}
	}
}
