package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// processStart is read before main: set-up time counts from process start.
var processStart = time.Now()

// environment is recorded in every result.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	// JournalFS is the filesystem under the journal directories; Disk says
	// it is not memory backed, so fsync times carry the disk's own noise.
	JournalFS string `json:"journal_fs"`
	Disk      bool   `json:"disk"`
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown" // built outside a git checkout
}

// runOptions selects one run.
type runOptions struct {
	Root    string // repository root: scratch and output live under it
	Seed    int64
	Seconds float64
	Trace   bool
	// Rounds is how many times the daemon is brought up; every round warms
	// its daemon up and measures its share of the jobs. Sub-second set-up
	// spreads 10–30% run to run, a median of three much less.
	Rounds int
	Probes probeSize
}

// result is everything one run reports.
type result struct {
	Workload     string            `json:"workload"`
	Traced       bool              `json:"traced"`
	Env          environment       `json:"env"`
	SequenceHash string            `json:"sequence_hash"`
	Jobs         int               `json:"jobs"`
	WarmupJobs   int               `json:"warmup_jobs"`
	MeasuredS    float64           `json:"measured_s"`
	Counts       counts            `json:"counts"`
	Correct      bool              `json:"correct"`
	FirstError   string            `json:"first_error,omitempty"`
	Metrics      map[string]metric `json:"metrics"`
	// Info is reported, not gated: the median latency beside its tail with
	// the tail's percentile, and how well a traced run knows the daemon's
	// clock.
	Info      map[string]metric `json:"info"`
	Budget    []budgetRow       `json:"budget,omitempty"`
	TraceFile string            `json:"trace_file,omitempty"`
}

// firstError is the reason the first failed job gave ("" for none).
func firstError(recs []jobRecord) string {
	for i := range recs {
		if !recs[i].OK {
			return recs[i].Err
		}
	}
	return ""
}

func runWorkload(w *workload, o runOptions) (*result, error) {
	build := filepath.Join(o.Root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	stopCleanup := removeOnSignal(scratch)
	defer stopCleanup()

	fs, disk := fsKind(scratch)
	res := &result{
		Workload: w.Name,
		Traced:   o.Trace,
		Env: environment{
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			Commit: commit(), Seed: o.Seed, Seconds: o.Seconds, JournalFS: fs, Disk: disk,
		},
		Metrics: map[string]metric{},
		Info:    map[string]metric{},
	}
	if disk && w.Fsync != "" {
		fmt.Fprintf(os.Stderr, "bench: journal on %s, not memory backed: fsync times carry the disk's noise (disk: true)\n", fs)
	}

	n := w.jobCount(o.Seconds, o.Rounds)
	reqs := w.generate(o.Seed, n)
	per := n / o.Rounds
	warm := max(per/10, 1)
	res.SequenceHash, res.Jobs, res.WarmupJobs = sequenceHash(reqs), n, warm*o.Rounds

	// Every round brings a daemon up, replays the first tenth of its share
	// of the sequence as warm-up, and measures the share. The first set-up
	// counts from process start. The last daemon stays for the probes.
	var (
		d      *daemon
		g      *generator
		m      measured
		setupS []float64
		last   counters
	)
	defer func() {
		if d != nil { // nil after a failed set-up
			g.close()
			d.close()
		}
	}()
	for r := 0; r < o.Rounds; r++ {
		from := time.Now()
		if r == 0 {
			from = processStart
		}
		share := reqs[r*per : (r+1)*per]
		for attempt := 1; ; attempt++ {
			if d != nil {
				g.close()
				d.close()
			}
			if d, err = startDaemon(w, scratch); err != nil {
				return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
			}
			g = newGenerator(w, d)
			wu := g.run(share[:warm], false).Recs
			c := tally(wu)
			if c.Failed == 0 {
				break
			}
			// A daemon whose first goal job overran its goal refuses every
			// later one as infeasible (README, known instabilities): such a
			// daemon is set up again; any other failure ends the run.
			if c.Refused < c.Failed || attempt == 3 {
				return nil, fmt.Errorf("%s: warm-up: %d of %d jobs failed: %s", w.Name, c.Failed, len(wu), firstError(wu))
			}
			fmt.Fprintf(os.Stderr, "bench: %s: the daemon refused %d of %d warm-up jobs (%s); setting it up again\n", w.Name, c.Refused, len(wu), firstError(wu))
			res.Info["setup_retries"] = metric{res.Info["setup_retries"].Value + 1, "count"}
		}
		setupS = append(setupS, time.Since(from).Seconds())
		before := d.counters()
		ph := g.run(share, o.Trace)
		last = d.counters()
		m.add(r, ph, last.minus(before))
	}

	res.Counts = tally(m.Recs)
	res.Correct = res.Counts.Wrong == 0
	res.MeasuredS = m.WallMS / 1e3
	res.FirstError = firstError(m.Recs)
	lat := latencies(m.Recs)
	tail := tailPercentile(len(lat))
	res.Info["done_ms_p50"] = metric{median(lat), "ms"}
	res.Info["done_ms_tail"] = metric{quantile(lat, tail), "ms"}
	res.Info["done_ms_tail_pct"] = metric{100 * tail, "%"}
	res.Info["done_ms_max"] = metric{quantile(lat, 1), "ms"}
	res.Info["done_ms_n"] = metric{float64(len(lat)), "count"}
	res.Info["measured_s"] = metric{res.MeasuredS, "s"}

	if !o.Trace {
		res.Metrics = endToEnd(w, &m, setupS, last.HeapMB)
		delete(res.Info, "done_ms_p50") // it is a metric of this run
		return res, nil
	}

	fromRecords(&m, res.Metrics)
	t := &tracer{}
	for i := range m.Recs {
		if r := &m.Recs[i]; r.OK {
			t.addJob(r)
		}
	}
	res.Budget = budget(t.spans, median(lat))
	res.Info["clock_bracket_us"] = metric{2 * d.startSlackMS * 1e3, "us"}

	p := &prober{size: o.Probes, t: t, epoch: d.start, metrics: res.Metrics}
	if err := p.submit(g, reqs, warm+per); err != nil {
		return nil, err
	}
	if err := p.remoteRun(d, &reqs[0]); err != nil {
		return nil, err
	}
	// The remaining probes need no daemon; stopping it first also closes the
	// last round's journal, which the replay probe reopens.
	g.close()
	d.close()
	replayDir, err := p.journalAppend(scratch)
	if err != nil {
		return nil, err
	}
	if d.jdir != "" {
		replayDir = d.jdir
	}
	if err := p.journalReplay(replayDir); err != nil {
		return nil, err
	}
	p.rebalance(16)
	p.rebalance(1024)
	if err := p.planAndLib(&reqs[0]); err != nil {
		return nil, err
	}
	if res.TraceFile, err = writeTrace(o.Root, w, res.Env, res.Budget, t.spans); err != nil {
		return nil, fmt.Errorf("%s: write trace: %w", w.Name, err)
	}
	return res, nil
}

// budgetNotes names the part of a budget row that a layer's probe accounts
// for: the journal's appends inside the server's rows, the cluster run
// inside server.run, Server.Submit inside http.submit.
func budgetNotes(w *workload, res *result) []budgetRow {
	p50 := res.Info["done_ms_p50"].Value
	if p50 <= 0 {
		return nil
	}
	m := res.Metrics
	notes := []budgetRow{{Span: "Server.Submit", SelfMS: m["server.submit_us_p50"].Value / 1e3}}
	if w.Fsync != "" {
		notes = append(notes, budgetRow{
			Span:   "journal",
			SelfMS: m["journal.appends_per_job"].Value * m["journal.append_us_p50."+string(w.Fsync)].Value / 1e3,
		})
	}
	if w.Cluster {
		notes = append(notes, budgetRow{Span: "remote", SelfMS: m["remote.run_ms_p50"].Value})
	}
	for i := range notes {
		notes[i].Share = notes[i].SelfMS / p50
	}
	return notes
}
