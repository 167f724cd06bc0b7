// skelrun runs the paper's word-count workload on the deterministic
// simulator with a fully configurable autonomic setup — the exploration
// tool behind EXPERIMENTS.md. It prints a run summary, the decision log,
// and optionally the active-threads series.
//
//	go run ./cmd/skelrun -goal 9.5s
//	go run ./cmd/skelrun -goal 9.5s -init            # paper scenario 2
//	go run ./cmd/skelrun -goal 10.5s -policy paper-nodecrease  # ablation
//	go run ./cmd/skelrun -lp 1 -goal 0               # sequential baseline
//
// With -daemon it instead submits a real job to a running skelrund and
// follows it to completion:
//
//	go run ./cmd/skelrun -daemon localhost:8080 -skeleton wordcount -goal 500ms
//	go run ./cmd/skelrun -daemon localhost:8080 -skeleton sleepgrid \
//	    -params '{"k":4,"m":4,"cell_ms":20}' -goal 100ms
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"skandium/internal/clock"
	"skandium/internal/core"
	"skandium/internal/paperexp"
)

func main() {
	goal := flag.Duration("goal", 9500*time.Millisecond, "WCT QoS goal (0 = no autonomics)")
	initEst := flag.Bool("init", false, "initialize estimators from a profiling run (scenario 2)")
	lp := flag.Int("lp", 1, "initial level of parallelism")
	maxLP := flag.Int("maxlp", 24, "hardware threads of the simulated machine")
	k := flag.Int("k", 5, "first-level split cardinality")
	m := flag.Int("m", 7, "second-level split cardinality")
	rho := flag.Float64("rho", 0.5, "estimator weight ρ")
	jitter := flag.Float64("jitter", 0, "relative duration noise")
	seed := flag.Int64("seed", 42, "seed")
	interval := flag.Duration("interval", 100*time.Millisecond, "analysis throttle")
	policy := flag.String("policy", "paper-minimal", "adaptation policy by registry name (daemon mode: sent only when given, else the daemon's default)")
	csv := flag.Bool("csv", false, "print the active-threads series as CSV")
	daemon := flag.String("daemon", "", "submit to a running skelrund at this address instead of simulating")
	skeleton := flag.String("skeleton", "wordcount", "registered skeleton to run (daemon mode)")
	params := flag.String("params", "", "skeleton params as JSON (daemon mode)")
	retries := flag.Int("retries", 0, "total attempts per muscle, <=1 = no retry (daemon mode)")
	timeout := flag.Duration("timeout", 0, "per-muscle deadline, 0 = none (daemon mode)")
	partial := flag.String("partial", "", "fan-out failure policy: failfast|skip|substitute (daemon mode)")
	tenant := flag.String("tenant", "", "tenant identity for admission fairness, sent as X-Skel-Tenant (daemon mode)")
	priority := flag.Int("priority", 0, "admission priority: <0 sheds first under load, >0 rides to the hard wall (daemon mode)")
	flag.Parse()

	if *daemon != "" {
		opts := submitOpts{
			Retries: *retries, Timeout: *timeout, Partial: *partial,
			Tenant: *tenant, Priority: *priority,
		}
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "policy" {
				opts.Policy = *policy
			}
		})
		if err := runDaemonClient(*daemon, *skeleton, *params, *goal, *lp, *maxLP, opts); err != nil {
			log.Fatal(err)
		}
		return
	}

	spec := paperexp.Spec{
		K: *k, M: *m,
		Goal:             *goal,
		MaxLP:            *maxLP,
		InitialLP:        *lp,
		Init:             *initEst,
		Jitter:           *jitter,
		Seed:             *seed,
		Rho:              *rho,
		AnalysisInterval: *interval,
	}
	p, err := core.NewPolicy(*policy, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	spec.Policy = p

	var r *paperexp.Result
	if *goal == 0 {
		r, err = paperexp.RunFixedLP(spec, *lp)
	} else {
		r, err = paperexp.Run(spec)
	}
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("workload: two-level map word count, K=%d M=%d, %d tweets, %d distinct tags\n",
		r.Spec.K, r.Spec.M, r.Spec.Tweets, len(r.Counts))
	fmt.Printf("machine:  %d simulated hardware threads, initial LP %d\n", r.Spec.MaxLP, *lp)
	if *goal > 0 {
		fmt.Printf("QoS:      WCT goal %v, policy=%s, ρ=%.2f, init=%v\n",
			*goal, *policy, *rho, *initEst)
	}
	fmt.Printf("result:   finished in %v  (peak LP %d, peak active %d, %d analyses)\n",
		r.Makespan.Round(time.Millisecond), r.PeakLP, r.PeakActive, r.Analyses)
	if *goal > 0 {
		verdict := "MET"
		if r.Makespan > *goal {
			verdict = "MISSED"
		}
		fmt.Printf("goal:     %s (%v vs %v)\n", verdict, r.Makespan.Round(time.Millisecond), *goal)
	}
	for _, d := range r.Decisions {
		fmt.Printf("  t=%-8v LP %2d -> %2d  pred=%v best=%v opt=%d  %s\n",
			d.Time.Sub(clock.Epoch).Round(time.Millisecond), d.OldLP, d.NewLP,
			d.PredictedWCT.Round(time.Millisecond), d.BestWCT.Round(time.Millisecond),
			d.OptimalLP, d.Reason)
	}
	if *csv {
		fmt.Print(r.Recorder.CSV(time.Millisecond))
	}
}
