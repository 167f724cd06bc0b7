package paperexp

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"skandium/internal/core"
	"skandium/internal/estimate"
	"skandium/internal/event"
	"skandium/internal/metrics"
	"skandium/internal/muscle"
	"skandium/internal/sim"
	"skandium/internal/skel"
	"skandium/internal/statemachine"
)

// DaCSpec parameterizes the second benchmark (the paper's §6 "more
// experiments ... on other benchmarks"): an autonomic divide-and-conquer
// mergesort on the simulator. Unlike the word-count, the structure unfolds
// dynamically (the recursion depth is only known from |fc| estimates), so
// it exercises the ADG's d&c expansion under the controller.
type DaCSpec struct {
	// Elements is the array size; Leaf the cutoff below which the leaf
	// sorter runs. Depth of the recursion ≈ log2(Elements/Leaf).
	Elements int
	Leaf     int
	// Cond/Split/LeafCost/Merge are virtual muscle durations.
	Cond, Split, LeafCost, Merge time.Duration
	// Goal, MaxLP, InitialLP, Rho, AnalysisInterval and Policy as in Spec.
	// A negative Goal disables the controller (fixed-LP baseline); zero
	// means the default goal.
	Goal             time.Duration
	MaxLP            int
	InitialLP        int
	Rho              float64
	AnalysisInterval time.Duration
	Policy           core.Policy
	Seed             int64
}

// Defaults fills zero fields: 16 leaves of 80 ms dominate ≈1.4 s of
// sequential work with a ≈180 ms span.
func (s DaCSpec) Defaults() DaCSpec {
	if s.Elements == 0 {
		s.Elements = 1 << 12
	}
	if s.Leaf == 0 {
		s.Leaf = s.Elements / 16
	}
	if s.Cond == 0 {
		s.Cond = time.Millisecond
	}
	if s.Split == 0 {
		s.Split = 5 * time.Millisecond
	}
	if s.LeafCost == 0 {
		s.LeafCost = 80 * time.Millisecond
	}
	if s.Merge == 0 {
		s.Merge = 10 * time.Millisecond
	}
	if s.Goal == 0 {
		s.Goal = 400 * time.Millisecond
	}
	if s.MaxLP == 0 {
		s.MaxLP = 24
	}
	if s.InitialLP == 0 {
		s.InitialLP = 1
	}
	if s.Rho == 0 {
		s.Rho = estimate.DefaultRho
	}
	if s.Seed == 0 {
		s.Seed = 7
	}
	if s.AnalysisInterval == 0 {
		s.AnalysisInterval = 20 * time.Millisecond
	}
	return s
}

// DaCResult is the outcome of a d&c run.
type DaCResult struct {
	Spec       DaCSpec
	Makespan   time.Duration
	Sorted     bool
	Decisions  []core.Decision
	FirstAdapt time.Duration
	PeakLP     int
	PeakActive int
	Recorder   *metrics.Recorder
}

// RunDaC executes the mergesort experiment on the simulator; goal 0 runs
// the fixed-LP baseline at InitialLP.
func RunDaC(spec DaCSpec) (*DaCResult, error) {
	spec = spec.Defaults()

	fc := muscle.NewCondition("big", func(p any) (bool, error) {
		return len(p.([]int)) > spec.Leaf, nil
	})
	fs := muscle.NewSplit("halve", func(p any) ([]any, error) {
		s := p.([]int)
		mid := len(s) / 2
		return []any{s[:mid:mid], s[mid:]}, nil
	})
	fe := muscle.NewExecute("sortLeaf", func(p any) (any, error) {
		out := append([]int(nil), p.([]int)...)
		sort.Ints(out)
		return out, nil
	})
	fm := muscle.NewMerge("mergeRuns", func(ps []any) (any, error) {
		a, b := ps[0].([]int), ps[1].([]int)
		out := make([]int, 0, len(a)+len(b))
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			if a[i] <= b[j] {
				out = append(out, a[i])
				i++
			} else {
				out = append(out, b[j])
				j++
			}
		}
		out = append(out, a[i:]...)
		return append(out, b[j:]...), nil
	})
	program := skel.NewDaC(fc, fs, skel.NewSeq(fe), fm)

	costs := sim.CostFunc(func(m *muscle.Muscle, _ any) time.Duration {
		switch m.ID() {
		case fc.ID():
			return spec.Cond
		case fs.ID():
			return spec.Split
		case fe.ID():
			return spec.LeafCost
		case fm.ID():
			return spec.Merge
		default:
			return 0
		}
	})

	reg := event.NewRegistry()
	rec := metrics.NewRecorder()
	eng := sim.NewEngine(sim.Config{
		Events: reg,
		Costs:  costs,
		LP:     spec.InitialLP,
		MaxLP:  spec.MaxLP,
		Gauge:  rec.Gauge,
	})
	rec.SetStart(eng.Now())

	est := estimate.NewRegistry(spec.Rho)
	tracker := statemachine.NewTracker(est)
	var ctl *core.Controller
	if spec.Goal > 0 {
		ctl = core.NewController(core.Config{
			WCTGoal:          spec.Goal,
			MaxLP:            spec.MaxLP,
			AnalysisInterval: spec.AnalysisInterval,
			Policy:           spec.Policy,
		}, program, eng, est, tracker, eng.Clock())
		ctl.SetStart(eng.Now())
		core.Attach(reg, tracker, ctl)
	} else {
		reg.Add(tracker.Listener())
	}

	rng := rand.New(rand.NewSource(spec.Seed))
	data := make([]int, spec.Elements)
	for i := range data {
		data[i] = rng.Int()
	}
	res, makespan, err := eng.Run(program, data)
	if err != nil {
		return nil, err
	}
	sorted, ok := res.([]int)
	if !ok {
		return nil, fmt.Errorf("paperexp: d&c produced %T", res)
	}
	out := &DaCResult{
		Spec:       spec,
		Makespan:   makespan,
		Sorted:     sort.IntsAreSorted(sorted) && len(sorted) == spec.Elements,
		Recorder:   rec,
		PeakLP:     rec.PeakLP(),
		PeakActive: rec.PeakActive(),
	}
	if ctl != nil {
		out.Decisions = ctl.Decisions()
		if len(out.Decisions) > 0 {
			out.FirstAdapt = out.Decisions[0].Time.Sub(eng.StartTime())
		}
	}
	return out, nil
}
