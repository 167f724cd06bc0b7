package main

import (
	"fmt"
	"os"
	"time"

	"skandium"
	"skandium/internal/core"
	"skandium/internal/journal"
	"skandium/internal/plan"
)

// Probes time each layer's exported functions directly, without the daemon
// around them. They run in traced runs only, after the measured phase, and
// every call is a span. Their sizes do not follow -seconds, so the numbers
// compare across workloads and runs.

// probeSize is how much work the probes do.
type probeSize struct {
	// JournalJobs is the Submit+Start+Finish triplets appended per policy.
	JournalJobs int
	// JobBudget bounds each probe that runs whole jobs: it repeats until
	// this much time has passed, MinJobs times at least — a tiny job yields
	// thousands of samples, a 350 ms one three.
	JobBudget time.Duration
	MinJobs   int
	// RebalanceReps is the Arbiter.Rebalance calls timed per member count.
	RebalanceReps int
}

var fullProbes = probeSize{JournalJobs: 1500, JobBudget: 800 * time.Millisecond, MinJobs: 3, RebalanceReps: 60}

type prober struct {
	size    probeSize
	t       *tracer
	epoch   time.Time // probe spans are timed on the daemon's clock
	metrics map[string]metric
}

// withinBudget says whether a job probe that began at begin and has run
// done jobs should run another.
func (p *prober) withinBudget(begin time.Time, done int) bool {
	return done < p.size.MinJobs || time.Since(begin) < p.size.JobBudget
}

func (p *prober) put(name string, v float64, unit string) { p.metrics[name] = metric{v, unit} }

// timed runs f as one span and returns its duration in microseconds.
func (p *prober) timed(name string, f func()) float64 {
	start := time.Now()
	f()
	end := time.Now()
	ms := func(t time.Time) float64 { return float64(t.Sub(p.epoch)) / float64(time.Millisecond) }
	p.t.add(0, "", name, ms(start), ms(end))
	return float64(end.Sub(start)) / float64(time.Microsecond)
}

// submit times Server.Submit alone on the live daemon, with the workload's
// own specs: what remains of http.submit once HTTP and JSON are taken away.
// Each job is waited for over the follow stream so that the next Submit
// meets an idle daemon, like a closed-loop client's does.
func (p *prober) submit(g *generator, reqs []request, jobsSoFar int) error {
	var us []float64
	for i, begin := 0, time.Now(); p.withinBudget(begin, i); i++ {
		spec := reqs[i%len(reqs)].Spec.submitSpec()
		var err error
		us = append(us, p.timed("server.submit", func() { _, err = g.d.srv.Submit(spec) }))
		if err != nil {
			return fmt.Errorf("submit probe: %w", err)
		}
		// Job ids are sequential, and this probe is the daemon's only client.
		if err := g.follow(fmt.Sprintf("/jobs/job-%d", jobsSoFar+i+1)); err != nil {
			return fmt.Errorf("submit probe: %w", err)
		}
	}
	p.put("server.submit_us_p50", median(us), "us")
	return nil
}

// journalAppend times Submit+Start+Finish triplets on a fresh journal per
// fsync policy, in the directory the run's own journal would use, and
// returns the directory the last one left behind.
func (p *prober) journalAppend(scratch string) (string, error) {
	var dir string
	for _, policy := range []journal.FsyncPolicy{journal.FsyncAlways, journal.FsyncInterval, journal.FsyncNever} {
		var err error
		if dir, err = os.MkdirTemp(scratch, "probe-journal-"); err != nil {
			return "", err
		}
		jn, _, err := journal.Open(dir, journal.Options{Fsync: policy})
		if err != nil {
			return "", fmt.Errorf("journal probe: %w", err)
		}
		var us []float64
		for i := 0; i < p.size.JournalJobs && err == nil; i++ {
			id := fmt.Sprintf("job-%d", i+1)
			us = append(us,
				p.timed("journal.append", func() {
					err = jn.Submit(id, journal.Spec{Skeleton: "sleepgrid", Params: map[string]any{"k": 1, "m": 1, "cell_ms": 0.05}})
				}),
				p.timed("journal.append", func() {
					if err == nil {
						err = jn.Start(id)
					}
				}),
				p.timed("journal.append", func() {
					if err == nil {
						err = jn.Finish(id, journal.StateDone, "1", "", journal.FaultCounts{})
					}
				}))
		}
		if cerr := jn.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return "", fmt.Errorf("journal probe (%s): %w", policy, err)
		}
		p.put("journal.append_us_p50."+string(policy), median(us), "us")
	}
	return dir, nil
}

// journalReplay times journal.Open on a directory a closed journal left
// behind: the run's own when the workload journals (so it grows with the
// run), the probe's otherwise.
func (p *prober) journalReplay(dir string) error {
	var jn *journal.Journal
	var err error
	us := p.timed("journal.replay", func() { jn, _, err = journal.Open(dir, journal.Options{Fsync: journal.FsyncNever}) })
	if err != nil {
		return fmt.Errorf("replay probe: %w", err)
	}
	p.put("journal.replay_ms", us/1e3, "ms")
	return jn.Close()
}

// stubMember is an arbiter member whose wish never changes.
type stubMember struct{ d core.Demand }

func (m *stubMember) Demand() core.Demand { return m.d }
func (m *stubMember) Grant(int)           {}

// rebalance times Arbiter.Rebalance over m members of 4 tenants whose
// wishes oversubscribe the budget two to one, so every round contracts.
func (p *prober) rebalance(m int) {
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
		if err := arb.AdmitFor(fmt.Sprintf("job-%d", i), tenants[i%len(tenants)], &stubMember{d}); err != nil {
			panic(err) // the budget holds two units per member
		}
	}
	var us []float64
	for i := 0; i < p.size.RebalanceReps; i++ {
		us = append(us, p.timed("core.rebalance", arb.Rebalance))
	}
	p.put(fmt.Sprintf("core.rebalance_us_p50.m%d", m), median(us), "us")
}

// planAndLib works on the workload's own first job: plan.Compile+Optimize
// cold, plan.Of on the node's cache, and the whole job through the library
// alone (Build, Start at LP 2, Result) with no daemon around it.
func (p *prober) planAndLib(req *request) error {
	bp, ok := skandium.LookupBlueprint(req.Spec.Skeleton)
	if !ok {
		return fmt.Errorf("lib probe: no blueprint %q", req.Spec.Skeleton)
	}
	runner, err := bp.Build(req.Spec.Params)
	if err != nil {
		return fmt.Errorf("lib probe: %w", err)
	}
	node := runner.Node()
	var us []float64
	for i := 0; i < 200 && err == nil; i++ {
		us = append(us, p.timed("plan.compile", func() {
			var prog *plan.Program
			if prog, err = plan.Compile(node); err == nil {
				plan.Optimize(prog)
			}
		}))
	}
	if err != nil {
		return fmt.Errorf("lib probe: compile: %w", err)
	}
	p.put("plan.compile_us_p50", median(us), "us")

	if _, err := plan.Of(node); err != nil {
		return fmt.Errorf("lib probe: %w", err)
	}
	var ns []float64
	const batch = 1000 // one clock reading per batch: a hit is a few nanoseconds
	for i := 0; i < 50; i++ {
		start := time.Now()
		for k := 0; k < batch; k++ {
			_, _ = plan.Of(node) // cached: cannot fail after the call above
		}
		ns = append(ns, float64(time.Since(start).Nanoseconds())/batch)
	}
	p.put("plan.of_cached_ns_p50", median(ns), "ns")

	const lp = 2
	var wallS, overheadUS float64
	var tasks uint64
	jobs := 0
	for begin := time.Now(); p.withinBudget(begin, jobs); jobs++ {
		var h skandium.Handle
		var res any
		us := p.timed("exec.lib_run", func() {
			var r skandium.Runner
			if r, err = bp.Build(req.Spec.Params); err == nil {
				h = r.Start(skandium.WithLP(lp))
				res, err = h.Result()
			}
		})
		if err != nil {
			return fmt.Errorf("lib probe: run: %w", err)
		}
		st := h.Stats()
		h.Close()
		if got := fmt.Sprint(res); got != req.Want {
			return fmt.Errorf("lib probe: result %s, oracle wants %s", got, req.Want)
		}
		wallS += us / 1e6
		tasks += st.TasksRun
		overheadUS += us*lp - float64(st.BusyTime)/float64(time.Microsecond)
	}
	p.put("exec.lib_jobs_per_s", float64(jobs)/wallS, "1/s")
	p.put("exec.task_overhead_us", overheadUS/float64(tasks), "us")
	return nil
}

// remoteRun times Cluster.Run directly, without the server in front, and
// subtracts the ideal sleep path k·m·cell ÷ budget. Without a cluster the
// layer is not in the workload's path and both numbers are 0.
func (p *prober) remoteRun(d *daemon, req *request) error {
	if d.cluster == nil {
		p.put("remote.run_ms_p50", 0, "ms")
		p.put("remote.overhead_ms_p50", 0, "ms")
		return nil
	}
	prm := req.Spec.Params
	idealMS := float64(prm.Int("k", 0)*prm.Int("m", 0)) * prm.Float("cell_ms", 0) / float64(d.cluster.Budget())
	var ms []float64
	for i, begin := 0, time.Now(); p.withinBudget(begin, i); i++ {
		var res any
		var err error
		us := p.timed("remote.run", func() { res, err = d.cluster.Run(req.Spec.Skeleton, prm) })
		if err != nil {
			return fmt.Errorf("remote probe: %w", err)
		}
		if got := fmt.Sprint(res); got != req.Want {
			return fmt.Errorf("remote probe: result %s, oracle wants %s", got, req.Want)
		}
		ms = append(ms, us/1e3)
	}
	p.put("remote.run_ms_p50", median(ms), "ms")
	p.put("remote.overhead_ms_p50", median(ms)-idealMS, "ms")
	return nil
}
