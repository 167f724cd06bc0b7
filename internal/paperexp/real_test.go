package paperexp

import (
	"testing"
	"time"

	"skandium/internal/core"
	"skandium/internal/estimate"
	"skandium/internal/event"
	"skandium/internal/exec"
	"skandium/internal/muscle"
	"skandium/internal/skel"
	"skandium/internal/statemachine"
	"skandium/internal/workload"
)

// TestRealEngineScenario runs the paper's workload shape on the real
// goroutine engine with sleep-calibrated muscles at 1 paper-second = 4 real
// milliseconds (full run ≈ 50 ms). Sleep muscles parallelize even on one
// CPU, so the controller's adaptation is observable end to end outside the
// simulator. Only the qualitative shape is asserted: adaptation happened
// after the first merge, the run beat the sequential time and met a
// generous goal.
func TestRealEngineScenario(t *testing.T) {
	const scale = 4 * time.Millisecond // one paper-second
	corpus := workload.Generate(workload.GenConfig{Tweets: 700, Seed: 42})
	total := len(corpus.Tweets)

	sleepFor := func(d time.Duration) {
		if d > 0 {
			time.Sleep(d)
		}
	}
	split1 := time.Duration(6.4 * float64(scale))
	split2 := split1 / 7
	tiny := time.Duration(0.04 * float64(scale))

	fs := muscle.NewSplit("fs", func(p any) ([]any, error) {
		c := p.(workload.Chunk)
		parts := 5
		if c.Len() < total {
			parts = 7
			sleepFor(split2)
		} else {
			sleepFor(split1)
		}
		chunks := workload.SplitChunk(c, parts)
		out := make([]any, len(chunks))
		for i, ch := range chunks {
			out[i] = ch
		}
		return out, nil
	})
	fe := muscle.NewExecute("fe", func(p any) (any, error) {
		sleepFor(tiny)
		return workload.CountChunk(p.(workload.Chunk)), nil
	})
	fm := muscle.NewMerge("fm", func(ps []any) (any, error) {
		sleepFor(tiny)
		parts := make([]workload.Counts, len(ps))
		for i, p := range ps {
			parts[i] = p.(workload.Counts)
		}
		return workload.MergeCounts(parts), nil
	})
	inner := skel.NewMap(fs, skel.NewSeq(fe), fm)
	program := skel.NewMap(fs, inner, fm)

	// Measure the true sequential baseline first: time.Sleep granularity
	// inflates sub-millisecond muscles, so the analytic 12.6×scale figure
	// underestimates real elapsed time.
	basePool := exec.NewPool(nil, 1, 1)
	baseStart := time.Now()
	full0 := workload.Chunk{Corpus: corpus, Lo: 0, Hi: total}
	if _, err := exec.NewRoot(basePool, nil, nil).Start(program, full0).Get(); err != nil {
		t.Fatal(err)
	}
	baseline := time.Since(baseStart)
	basePool.Close()

	// Goal: 60% of the measured sequential time — unreachable at LP 1,
	// comfortably reachable with parallel branches.
	goal := baseline * 6 / 10

	pool := exec.NewPool(nil, 1, 24)
	defer pool.Close()
	reg := event.NewRegistry()
	est := estimate.NewRegistry(estimate.DefaultRho)
	tracker := statemachine.NewTracker(est)
	ctl := core.NewController(core.Config{
		WCTGoal: goal,
		MaxLP:   24,
		Policy:  core.PaperPolicy{Increase: core.IncreaseMinimal},
	}, program, pool, est, tracker, nil)
	core.Attach(reg, tracker, ctl)

	start := time.Now()
	root := exec.NewRoot(pool, reg, nil)
	ctl.SetStart(time.Now())
	full := workload.Chunk{Corpus: corpus, Lo: 0, Hi: total}
	res, err := root.Start(program, full).Get()
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	counts := res.(workload.Counts)
	if counts.Total() == 0 {
		t.Fatal("empty counts")
	}
	ds := ctl.Decisions()
	if len(ds) == 0 {
		t.Fatal("controller never adapted on the real engine")
	}
	// The first adaptation must come after the first split completed (no
	// estimates before that) — i.e. not before ~6.4 paper-seconds.
	firstAdapt := ds[0].Time.Sub(start)
	if firstAdapt < time.Duration(6*float64(scale)) {
		t.Fatalf("first adaptation implausibly early: %v", firstAdapt)
	}
	if ds[0].NewLP <= ds[0].OldLP {
		t.Fatalf("first decision not an increase: %v", ds[0])
	}
	// Require a real speedup over the measured sequential baseline —
	// except under the race detector, whose instrumentation distorts
	// wall-clock comparisons beyond usefulness on small machines.
	if !raceEnabled && elapsed >= baseline*9/10 {
		t.Fatalf("no speedup: %v vs baseline %v (decisions %v)", elapsed, baseline, ds)
	}
}
