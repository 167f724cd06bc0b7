package tournament

// The scenario corpus. Each scenario builds deterministic virtual-time jobs
// from a seed and drives them under one adaptation policy:
//
//   - wordcount: the paper's tweet word-count map (paperexp) with seeded
//     duration jitter — the calibrated baseline workload.
//   - refine: a while-heavy iterative-refinement loop (While over a Map)
//     whose per-iteration cost drifts, so a policy must re-adapt mid-run.
//   - dacsort: a divide-and-conquer sort with skewed 1:3 splits — the
//     critical path hides on the big side, punishing over-eager decreases.
//   - bursty: a Poisson job stream (workload.OverloadPattern) of small map
//     jobs with per-job goals; stateful policies carry learning across jobs.

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
	"skandium/internal/paperexp"
	"skandium/internal/sim"
	"skandium/internal/skel"
	"skandium/internal/statemachine"
	"skandium/internal/workload"
)

type scenario struct {
	name  string
	index int
	run   func(seed int64, run int, pol core.Policy) ([]Outcome, error)
}

func scenarios() []scenario {
	return []scenario{
		{name: "wordcount", index: 0, run: runWordcount},
		{name: "refine", index: 1, run: runRefine},
		{name: "dacsort", index: 2, run: runDacsort},
		{name: "bursty", index: 3, run: runBursty},
	}
}

// Names lists the scenario corpus in canonical order.
func Names() []string {
	all := scenarios()
	out := make([]string, len(all))
	for i, s := range all {
		out[i] = s.name
	}
	return out
}

func selectScenarios(names []string) ([]scenario, error) {
	all := scenarios()
	if len(names) == 0 {
		return all, nil
	}
	byName := map[string]scenario{}
	for _, s := range all {
		byName[s.name] = s
	}
	var out []scenario
	for _, n := range names {
		s, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("tournament: unknown scenario %q (have %v)", n, Names())
		}
		out = append(out, s)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].index < out[j].index })
	return out, nil
}

// job is one controller-driven simulator run.
type job struct {
	program *skel.Node
	input   any
	costs   sim.CostModel
	seedEst func(est *estimate.Registry)
	goal    time.Duration
	maxLP   int
}

func runJob(j job, pol core.Policy) (Outcome, error) {
	reg := event.NewRegistry()
	rec := metrics.NewRecorder()
	est := estimate.NewRegistry(estimate.DefaultRho)
	j.seedEst(est)
	tracker := statemachine.NewTracker(est)
	eng := sim.NewEngine(sim.Config{Events: reg, Costs: j.costs, LP: 1, MaxLP: j.maxLP, Gauge: rec.Gauge})
	rec.SetStart(eng.Now())
	ctl := core.NewController(core.Config{WCTGoal: j.goal, MaxLP: j.maxLP, Policy: pol},
		j.program, eng, est, tracker, eng.Clock())
	ctl.SetStart(eng.Now())
	core.Attach(reg, tracker, ctl)
	_, makespan, err := eng.Run(j.program, j.input)
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{
		Goal:        j.goal,
		Makespan:    makespan,
		LPSeconds:   lpSeconds(rec, makespan, 1),
		Adaptations: len(ctl.Decisions()),
	}, nil
}

// probe measures the program's makespan at a fixed LP with no controller.
func probe(program *skel.Node, input any, costs sim.CostModel, lp int) (time.Duration, error) {
	eng := sim.NewEngine(sim.Config{Costs: costs, LP: lp})
	_, d, err := eng.Run(program, input)
	return d, err
}

// goalBetween probes sequential work and unbounded span and places the WCT
// goal a seeded fraction of the way between them — always reachable, never
// trivial.
func goalBetween(program *skel.Node, input any, costs sim.CostModel, rng *rand.Rand) (time.Duration, error) {
	work, err := probe(program, input, costs, 1)
	if err != nil {
		return 0, err
	}
	span, err := probe(program, input, costs, 4096)
	if err != nil {
		return 0, err
	}
	frac := 0.3 + 0.3*rng.Float64()
	goal := span + time.Duration(float64(work-span)*frac)
	if goal <= 0 {
		goal = work
	}
	return goal, nil
}

// runWordcount is the paper's tweet word-count experiment under seeded
// duration jitter (±15%), goal 9.5s — Scenario 1 with a pluggable policy.
func runWordcount(seed int64, run int, pol core.Policy) ([]Outcome, error) {
	spec := paperexp.Spec{
		Goal:             9500 * time.Millisecond,
		AnalysisInterval: 100 * time.Millisecond,
		Jitter:           0.15,
		Seed:             seed*7919 + int64(run)*104729 + 1,
		Policy:           pol,
	}.Defaults()
	res, err := paperexp.Run(spec)
	if err != nil {
		return nil, err
	}
	return []Outcome{{
		Goal:        spec.Goal,
		Makespan:    res.Makespan,
		LPSeconds:   lpSeconds(res.Recorder, res.Makespan, spec.InitialLP),
		Adaptations: len(res.Decisions),
	}}, nil
}

// runRefine builds While(iters, Map(parts)) where each iteration's exec
// cost is drawn per-level from the run's RNG, so the prediction drifts and
// the controller must keep re-adapting.
func runRefine(seed int64, run int, pol core.Policy) ([]Outcome, error) {
	rng := rand.New(rand.NewSource(seed*31 + int64(run)*1009 + 7))
	iters := 5 + rng.Intn(4)
	const parts = 8

	fc := muscle.NewCondition("more", func(p any) (bool, error) { return p.(int) > 0, nil })
	fs := muscle.NewSplit("scatter", func(p any) ([]any, error) {
		out := make([]any, parts)
		for i := range out {
			out[i] = p.(int)
		}
		return out, nil
	})
	fe := muscle.NewExecute("refine", func(p any) (any, error) { return p, nil })
	fm := muscle.NewMerge("gather", func(ps []any) (any, error) { return ps[0].(int) - 1, nil })
	program := skel.NewWhile(fc, skel.NewMap(fs, skel.NewSeq(fe), fm))

	// Per-iteration exec cost: 20-60ms, drifting level to level.
	execCost := make(map[int]time.Duration, iters)
	var sum time.Duration
	for n := 1; n <= iters; n++ {
		execCost[n] = time.Duration(20+rng.Intn(41)) * time.Millisecond
		sum += execCost[n]
	}
	costs := sim.CostFunc(func(m *muscle.Muscle, param any) time.Duration {
		switch m.ID() {
		case fc.ID():
			return time.Millisecond
		case fs.ID(), fm.ID():
			return 4 * time.Millisecond
		case fe.ID():
			return execCost[param.(int)]
		}
		return 0
	})
	seedEst := func(est *estimate.Registry) {
		est.InitDuration(fc.ID(), time.Millisecond)
		est.InitDuration(fs.ID(), 4*time.Millisecond)
		est.InitDuration(fm.ID(), 4*time.Millisecond)
		est.InitDuration(fe.ID(), sum/time.Duration(iters))
		est.InitCard(fs.ID(), parts)
		est.InitCard(fc.ID(), float64(iters))
	}
	goal, err := goalBetween(program, iters, costs, rng)
	if err != nil {
		return nil, err
	}
	o, err := runJob(job{program: program, input: iters, costs: costs,
		seedEst: seedEst, goal: goal, maxLP: 16}, pol)
	if err != nil {
		return nil, err
	}
	return []Outcome{o}, nil
}

// runDacsort builds a divide-and-conquer "sort" whose split is skewed 1:3,
// so the critical path lives on the big side and naive halving decreases
// miss the goal.
func runDacsort(seed int64, run int, pol core.Policy) ([]Outcome, error) {
	rng := rand.New(rand.NewSource(seed*53 + int64(run)*2003 + 11))
	size := 192 + rng.Intn(128)
	const threshold = 24
	perUnit := time.Duration(300+rng.Intn(300)) * time.Microsecond

	fc := muscle.NewCondition("big", func(p any) (bool, error) { return p.(int) > threshold, nil })
	fs := muscle.NewSplit("skew", func(p any) ([]any, error) {
		n := p.(int)
		return []any{n / 4, n - n/4}, nil
	})
	fe := muscle.NewExecute("sortleaf", func(p any) (any, error) { return p, nil })
	fm := muscle.NewMerge("join", func(ps []any) (any, error) {
		return ps[0].(int) + ps[1].(int), nil
	})
	program := skel.NewDaC(fc, fs, skel.NewSeq(fe), fm)

	costs := sim.CostFunc(func(m *muscle.Muscle, param any) time.Duration {
		switch m.ID() {
		case fc.ID():
			return 500 * time.Microsecond
		case fs.ID(), fm.ID():
			return 2 * time.Millisecond
		case fe.ID():
			return time.Duration(param.(int)) * perUnit
		}
		return 0
	})
	seedEst := func(est *estimate.Registry) {
		est.InitDuration(fc.ID(), 500*time.Microsecond)
		est.InitDuration(fs.ID(), 2*time.Millisecond)
		est.InitDuration(fm.ID(), 2*time.Millisecond)
		est.InitDuration(fe.ID(), time.Duration(threshold/2)*perUnit)
		est.InitCard(fs.ID(), 2)
		est.InitCard(fc.ID(), 6) // ~recursion depth along the skewed side
	}
	goal, err := goalBetween(program, size, costs, rng)
	if err != nil {
		return nil, err
	}
	o, err := runJob(job{program: program, input: size, costs: costs,
		seedEst: seedEst, goal: goal, maxLP: 16}, pol)
	if err != nil {
		return nil, err
	}
	return []Outcome{o}, nil
}

// burstyJobs caps how many arrivals each bursty run replays.
const burstyJobs = 8

// runBursty replays a seeded Poisson arrival schedule as a sequence of
// small map jobs, each with the generator's per-job WCT goal. The policy
// instance persists across the stream, so learning policies amortize
// exploration over the burst.
func runBursty(seed int64, run int, pol core.Policy) ([]Outcome, error) {
	pat := workload.OverloadPattern{
		Seed:       seed*131 + int64(run)*17 + 3,
		Duration:   3 * time.Second,
		BurstStart: time.Second,
		BurstEnd:   2 * time.Second,
		Tenants: []workload.TenantLoad{
			{Name: "t0", Weight: 1, Rate: 2, BurstRate: 8, GoalFrac: 1},
		},
		MeanWork:  400 * time.Millisecond,
		MaxWantLP: 4,
	}
	arrivals := pat.Arrivals()
	if len(arrivals) > burstyJobs {
		arrivals = arrivals[:burstyJobs]
	}
	var outs []Outcome
	for _, a := range arrivals {
		const parts = 8
		fs := muscle.NewSplit("scatter", func(p any) ([]any, error) {
			out := make([]any, parts)
			for i := range out {
				out[i] = p.(int)
			}
			return out, nil
		})
		fe := muscle.NewExecute("work", func(p any) (any, error) { return p, nil })
		fm := muscle.NewMerge("gather", func(ps []any) (any, error) { return len(ps), nil })
		program := skel.NewMap(fs, skel.NewSeq(fe), fm)

		exec := a.Work / parts
		costs := sim.CostFunc(func(m *muscle.Muscle, _ any) time.Duration {
			switch m.ID() {
			case fs.ID(), fm.ID():
				return 2 * time.Millisecond
			case fe.ID():
				return exec
			}
			return 0
		})
		seedEst := func(est *estimate.Registry) {
			est.InitDuration(fs.ID(), 2*time.Millisecond)
			est.InitDuration(fm.ID(), 2*time.Millisecond)
			est.InitDuration(fe.ID(), exec)
			est.InitCard(fs.ID(), parts)
		}
		o, err := runJob(job{program: program, input: 1, costs: costs,
			seedEst: seedEst, goal: a.Goal, maxLP: 16}, pol)
		if err != nil {
			return nil, err
		}
		outs = append(outs, o)
	}
	return outs, nil
}
