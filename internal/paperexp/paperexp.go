// Package paperexp encodes the paper's §5 evaluation as reproducible
// experiments: the two-level map word count over a tweet corpus, executed
// on the simulated 24-hardware-thread machine with the autonomic
// controller, in the paper's three scenarios —
//
//	Fig. 5 "Goal without initialization": WCT goal 9.5 s, cold estimators;
//	Fig. 6 "Goal with initialization":    WCT goal 9.5 s, estimators seeded
//	                                      from a previous run's final values;
//	Fig. 7 "WCT goal of 10.5 s":          a looser goal, cold estimators.
//
// Durations follow the paper's stated profile: the first split takes 6.4 s
// (it streams the input file, which is why no parallelism helps before it
// finishes), second-level splits are ~7x faster, execute and merge muscles
// cost ~0.04 s, and the total sequential work is ~12.5 s. As in the paper's
// Listing 1, both map levels share the same fs/fe/fm muscle objects, so
// every muscle has been observed once as soon as the first inner merge
// finishes — the moment the first analysis becomes possible.
package paperexp

import (
	"math/rand"
	"time"

	"skandium/internal/core"
	"skandium/internal/estimate"
	"skandium/internal/event"
	"skandium/internal/metrics"
	"skandium/internal/muscle"
	"skandium/internal/sim"
	"skandium/internal/skel"
	"skandium/internal/statemachine"
	"skandium/internal/workload"
)

// Spec parameterizes one run of the word-count experiment.
type Spec struct {
	// K is the first-level split cardinality, M the second-level one.
	// Defaults (5, 7) are fitted to the paper's stated timings: first
	// analysis at ~7.6 s and sequential work at ~12.5 s.
	K, M int
	// Split1/Split2/Exec/Merge are the virtual muscle durations.
	Split1, Split2, Exec, Merge time.Duration
	// Goal is the WCT QoS (0 = no autonomic adaptation).
	Goal time.Duration
	// MaxLP models the machine's hardware threads (paper: 24).
	MaxLP int
	// InitialLP is the starting level of parallelism (default 1).
	InitialLP int
	// Init seeds the estimators with the final values of a prior
	// (identical, goal-less) run — the paper's scenario 2.
	Init bool
	// Jitter adds ±Jitter relative noise to every muscle duration,
	// seeded by Seed (0 = deterministic).
	Jitter float64
	Seed   int64
	// Rho is the estimator weight (0 = paper default 0.5).
	Rho float64
	// Policy is the adaptation rule (nil = the paper's; the paper's
	// ablations are core.PaperPolicy values). A stateful policy must be
	// fresh per run.
	Policy core.Policy
	// AnalysisInterval throttles analyses (0 = every After event).
	AnalysisInterval time.Duration
	// Tweets sizes the synthetic corpus (0 = small default; corpus size
	// only affects the computed counts, not the virtual durations).
	Tweets int
	// SeparateMuscles clones fs/fm so each map level has its own estimator
	// history (the opt-out of the paper's Listing 1 sharing). With separate
	// muscles the outer merge is only observed when the execution ends, so
	// the estimate-completeness gate blocks every mid-run analysis — the
	// negative ablation showing why the paper's program shares muscles.
	SeparateMuscles bool
}

// Defaults fills zero fields with the paper-calibrated configuration.
func (s Spec) Defaults() Spec {
	if s.K == 0 {
		s.K = 5
	}
	if s.M == 0 {
		s.M = 7
	}
	if s.Split1 == 0 {
		s.Split1 = 6400 * time.Millisecond
	}
	if s.Split2 == 0 {
		s.Split2 = s.Split1 / 7
	}
	if s.Exec == 0 {
		s.Exec = 40 * time.Millisecond
	}
	if s.Merge == 0 {
		s.Merge = 40 * time.Millisecond
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
	if s.Tweets == 0 {
		s.Tweets = 2100
	}
	if s.Seed == 0 {
		s.Seed = 42
	}
	return s
}

// minimal is the rule the paper's scenarios run: raise LP only as far as
// the goal needs.
var minimal = core.PaperPolicy{Increase: core.IncreaseMinimal}

// Scenario1 is Fig. 5: goal 9.5 s, no initialization.
func Scenario1() Spec {
	return Spec{Goal: 9500 * time.Millisecond, Policy: minimal, AnalysisInterval: 100 * time.Millisecond}.Defaults()
}

// Scenario2 is Fig. 6: goal 9.5 s, with initialization.
func Scenario2() Spec {
	return Spec{Goal: 9500 * time.Millisecond, Init: true, Policy: minimal, AnalysisInterval: 100 * time.Millisecond}.Defaults()
}

// Scenario3 is Fig. 7: goal 10.5 s, no initialization.
func Scenario3() Spec {
	return Spec{Goal: 10500 * time.Millisecond, Policy: minimal, AnalysisInterval: 100 * time.Millisecond}.Defaults()
}

// Result is the outcome of one run.
type Result struct {
	Spec     Spec
	Makespan time.Duration
	// Counts is the functional result (global tag counts).
	Counts workload.Counts
	// Decisions is the controller's adaptation log (empty without a goal).
	Decisions []core.Decision
	// FirstAdapt is when the first LP change happened (0 if never).
	FirstAdapt time.Duration
	// PeakActive / PeakLP summarize the Figs. 5-7 series.
	PeakActive int
	PeakLP     int
	// Recorder holds the full active-threads/LP series.
	Recorder *metrics.Recorder
	// Profile is the estimator snapshot at the end of the run.
	Profile estimate.Profile
	// Analyses counts controller estimation cycles.
	Analyses int
}

// Program builds the paper's skeleton program over a corpus and returns it
// with its three shared muscles. The split splits the full corpus into K
// chunks and any sub-chunk into M; execute counts tags; merge folds counts.
func Program(corpus *workload.Corpus, k, m int) (*skel.Node, *muscle.Muscle, *muscle.Muscle, *muscle.Muscle) {
	total := len(corpus.Tweets)
	fs := muscle.NewSplit("fs", func(p any) ([]any, error) {
		c := p.(workload.Chunk)
		parts := k
		if c.Len() < total {
			parts = m
		}
		chunks := workload.SplitChunk(c, parts)
		out := make([]any, len(chunks))
		for i, ch := range chunks {
			out[i] = ch
		}
		return out, nil
	})
	fe := muscle.NewExecute("fe", func(p any) (any, error) {
		return workload.CountChunk(p.(workload.Chunk)), nil
	})
	fm := muscle.NewMerge("fm", func(ps []any) (any, error) {
		parts := make([]workload.Counts, len(ps))
		for i, p := range ps {
			parts[i] = p.(workload.Counts)
		}
		return workload.MergeCounts(parts), nil
	})
	inner := skel.NewMap(fs, skel.NewSeq(fe), fm)
	outer := skel.NewMap(fs, inner, fm)
	return outer, fs, fe, fm
}

// costModel declares the virtual durations: the first-level split is
// recognized by its parameter spanning the whole corpus.
type costModel struct {
	total                       int
	split1, split2, exec, merge time.Duration
	fs, fe, fm                  muscle.ID
	extraSplit, extraMerge      muscle.ID
	jitter                      float64
	rng                         *rand.Rand
}

func (cm *costModel) Cost(m *muscle.Muscle, param any) time.Duration {
	var d time.Duration
	switch m.ID() {
	case cm.extraSplit, cm.fs:
		if c, ok := param.(workload.Chunk); ok && c.Len() >= cm.total {
			d = cm.split1
		} else {
			d = cm.split2
		}
	case cm.fe:
		d = cm.exec
	case cm.extraMerge, cm.fm:
		d = cm.merge
	}
	if cm.jitter > 0 {
		f := 1 + cm.jitter*(2*cm.rng.Float64()-1)
		d = time.Duration(float64(d) * f)
	}
	return d
}

// Run executes one experiment on the simulator and returns its Result.
// When spec.Init is set, a goal-less profiling run over the same program
// primes the estimator profile first — the paper's "initialized with their
// corresponding final value of a previous execution".
func Run(spec Spec) (*Result, error) {
	spec = spec.Defaults()
	w := newWorld(spec)
	var profile estimate.Profile
	if spec.Init {
		prof := spec
		prof.Goal = 0
		prof.InitialLP = 1
		r, err := w.run(prof, nil)
		if err != nil {
			return nil, err
		}
		profile = r.Profile
	}
	return w.run(spec, profile)
}

// RunFixedLP executes the workload without any controller at a fixed LP —
// the non-autonomic baseline (LP=1 gives the paper's "total sequential
// work").
func RunFixedLP(spec Spec, lp int) (*Result, error) {
	spec = spec.Defaults()
	spec.Goal = 0
	spec.InitialLP = lp
	return newWorld(spec).run(spec, nil)
}

// world fixes the corpus and the program (and therefore the muscle
// identities) so profiling and measured runs share estimator keys.
type world struct {
	corpus     *workload.Corpus
	program    *skel.Node
	fs, fe, fm *muscle.Muscle
	clones     []*muscle.Muscle
}

func newWorld(spec Spec) *world {
	corpus := workload.Generate(workload.GenConfig{Tweets: spec.Tweets, Seed: spec.Seed})
	program, fs, fe, fm := Program(corpus, spec.K, spec.M)
	w := &world{corpus: corpus, program: program, fs: fs, fe: fe, fm: fm}
	if spec.SeparateMuscles {
		// Rebuild the outer level on clones: same functions, fresh IDs.
		fsOuter := fs.Clone("fsOuter")
		fmOuter := fm.Clone("fmOuter")
		inner := program.Children()[0]
		w.program = skel.NewMap(fsOuter, inner, fmOuter)
		w.clones = []*muscle.Muscle{fsOuter, fmOuter}
	}
	return w
}

func (w *world) run(spec Spec, profile estimate.Profile) (*Result, error) {
	corpus := w.corpus
	program, fs, fe, fm := w.program, w.fs, w.fe, w.fm

	cm := &costModel{
		total:  len(corpus.Tweets),
		split1: spec.Split1, split2: spec.Split2,
		exec: spec.Exec, merge: spec.Merge,
		fs: fs.ID(), fe: fe.ID(), fm: fm.ID(),
		jitter: spec.Jitter,
		rng:    rand.New(rand.NewSource(spec.Seed)),
	}
	for _, c := range w.clones {
		switch c.Kind() {
		case muscle.Split:
			cm.extraSplit = c.ID()
		case muscle.Merge:
			cm.extraMerge = c.ID()
		}
	}

	reg := event.NewRegistry()
	rec := metrics.NewRecorder()
	eng := sim.NewEngine(sim.Config{
		Events: reg,
		Costs:  cm,
		LP:     spec.InitialLP,
		MaxLP:  spec.MaxLP,
		Gauge:  rec.Gauge,
	})
	rec.SetStart(eng.Now())

	est := estimate.NewRegistry(spec.Rho)
	if profile != nil {
		est.Restore(profile)
	}
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

	full := workload.Chunk{Corpus: corpus, Lo: 0, Hi: len(corpus.Tweets)}
	res, makespan, err := eng.Run(program, full)
	if err != nil {
		return nil, err
	}

	out := &Result{
		Spec:       spec,
		Makespan:   makespan,
		Counts:     res.(workload.Counts),
		Recorder:   rec,
		PeakActive: rec.PeakActive(),
		PeakLP:     rec.PeakLP(),
		Profile:    est.Snapshot(),
	}
	if ctl != nil {
		out.Decisions = ctl.Decisions()
		out.Analyses = ctl.Analyses()
		if len(out.Decisions) > 0 {
			out.FirstAdapt = out.Decisions[0].Time.Sub(eng.StartTime())
		}
	}
	return out, nil
}
