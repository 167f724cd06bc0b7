package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestBenchmarkJSONMatchesHarness holds BENCHMARK.json and the tables the
// harness reports from together: a metric renamed on one side only would
// make the driver refuse every run.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, harness default %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := doc.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, harness %q (or their reasons differ)", i, got.Name, w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	if len(doc.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the harness", len(doc.EndToEnd), len(endToEndDefs))
	}
	for i, d := range endToEndDefs {
		got := doc.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end_to_end[%d]: BENCHMARK.json %+v, harness %+v", i, got, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(doc.PerLayer) != len(perLayerDefs) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the harness", len(doc.PerLayer), len(perLayerDefs))
	}
	seen := map[string]bool{}
	for _, d := range endToEndDefs {
		seen[d.Name] = true
	}
	for i, d := range perLayerDefs {
		if got := doc.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer[%d]: BENCHMARK.json %+v, harness %+v", i, got, d)
		}
		if !metricName.MatchString(d.Name) {
			t.Errorf("per-layer name %q is not [A-Za-z0-9_.-]+", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric name %q used twice", d.Name)
		}
		seen[d.Name] = true
	}
}

func TestSameSeedSameSequence(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, b := w.generate(7, 200), w.generate(7, 200)
		if sequenceHash(a) != sequenceHash(b) {
			t.Errorf("%s: seed 7 drew two different sequences", w.Name)
		}
		// The goal and cluster jobs are one fixed job each; the others vary.
		if c := w.generate(8, 200); w.Name != "goal_grid" && w.Name != "cluster_shard" && sequenceHash(a) == sequenceHash(c) {
			t.Errorf("%s: seeds 7 and 8 drew the same sequence", w.Name)
		}
	}
}

func TestOracleMontecarlo(t *testing.T) {
	// 4 batches of 1000 samples land close to π/4 of 4000.
	if got := montecarloHits(4000, 4); math.Abs(float64(got)/4000-math.Pi/4) > 0.03 {
		t.Errorf("montecarloHits(4000, 4) = %d, not near π/4 of the samples", got)
	}
}

// TestSpanSelfTimes: children may overlap and overhang; self time is what
// they leave uncovered.
func TestSpanSelfTimes(t *testing.T) {
	self := selfTimes([]span{
		{ID: 1, Name: "job", StartMS: 0, EndMS: 10},
		{ID: 2, Parent: 1, Name: "a", StartMS: 1, EndMS: 4},
		{ID: 3, Parent: 1, Name: "b", StartMS: 3, EndMS: 6},
		{ID: 4, Parent: 1, Name: "c", StartMS: 9, EndMS: 12},
		{ID: 5, Parent: 2, Name: "a1", StartMS: 1, EndMS: 2},
	})
	for id, want := range map[int]float64{1: 4, 2: 2, 3: 3, 4: 3, 5: 1} {
		if self[id] != want {
			t.Errorf("span %d: self time %v, want %v", id, self[id], want)
		}
	}
}

// TestWorkloadsEndToEnd runs every workload at its smallest size (one round
// of one job per slice) through the real daemon: output schema, oracle,
// exact counts and span nesting.
func TestWorkloadsEndToEnd(t *testing.T) {
	small := probeSize{JournalJobs: 40, JobBudget: 20 * time.Millisecond, MinJobs: 1, RebalanceReps: 5}
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			name := w.Name + "/untraced"
			if traced {
				name = w.Name + "/traced"
			} else if w.PerSecond < 20 {
				continue // jobs of 85 ms and more: the traced run covers the workload
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				res, err := runWorkload(w, runOptions{
					Root: t.TempDir(), Seed: 3, Seconds: 0.01, Trace: traced, Rounds: 1, Probes: small,
				})
				if err != nil {
					t.Fatal(err)
				}
				if c := res.Counts; !res.Correct || c.Failed != 0 || c.Attempted != res.Jobs || res.Jobs != w.jobCount(0.01, 1) {
					t.Fatalf("counts %+v, correct %v, jobs %d: %s", c, res.Correct, res.Jobs, res.FirstError)
				}
				if traced {
					checkTraced(t, w, res)
					return
				}
				if len(res.Metrics) != len(endToEndDefs) {
					t.Errorf("%d metrics, want the %d end-to-end ones: %v", len(res.Metrics), len(endToEndDefs), res.Metrics)
				}
				for _, d := range endToEndDefs {
					m, ok := res.Metrics[d.Name]
					// The share may be 0 on a slow box (under the race detector,
					// say); everything else is positive whatever the speed.
					positive := m.Value > 0 || d.Name == "within_limit_share" && m.Value == 0
					if !ok || m.Unit != d.Unit || !positive || math.IsInf(m.Value, 0) {
						t.Errorf("%s: reported %+v (present %v), want a positive number of %s", d.Name, m, ok, d.Unit)
					}
				}
			})
		}
	}
}

func checkTraced(t *testing.T, w *workload, res *result) {
	if len(res.Metrics) != len(perLayerDefs) {
		t.Errorf("%d metrics, want the %d per-layer ones", len(res.Metrics), len(perLayerDefs))
	}
	for _, d := range perLayerDefs {
		m, ok := res.Metrics[d.Name]
		if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: reported %+v (present %v), want a number of %s", d.Name, m, ok, d.Unit)
		}
	}
	value := func(name string) float64 { return res.Metrics[name].Value }
	wantAppends := 0.0
	if w.Fsync != "" {
		wantAppends = 3 // submit, start, finish
	}
	if got := value("journal.appends_per_job"); got != wantAppends {
		t.Errorf("journal.appends_per_job = %v, want exactly %v", got, wantAppends)
	}
	for _, name := range []string{"remote.hedged_per_job", "remote.degraded_per_job", "remote.deduped_per_job", "remote.shed_per_job", "server.shed_share"} {
		if got := value(name); got != 0 {
			t.Errorf("%s = %v, want 0", name, got)
		}
	}
	if w.Cluster != (value("remote.run_ms_p50") > 0) {
		t.Errorf("remote.run_ms_p50 = %v on a workload with cluster %v", value("remote.run_ms_p50"), w.Cluster)
	}
	if goal := w.Name == "goal_grid"; goal != (value("core.decisions_per_job") > 0) {
		t.Errorf("core.decisions_per_job = %v", value("core.decisions_per_job"))
	}

	// Every job's spans nest inside its root span, in order.
	raw, err := os.ReadFile(res.TraceFile)
	if err != nil {
		t.Fatal(err)
	}
	var file traceFile
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	byID := map[int]span{}
	for _, s := range file.Spans {
		byID[s.ID] = s
	}
	roots := 0
	for _, s := range file.Spans {
		switch {
		case s.Name == "job":
			roots++
		case s.Parent != 0:
			p := byID[s.Parent]
			if p.Name != "job" || s.Job != p.Job || s.StartMS < p.StartMS || s.EndMS > p.EndMS || s.EndMS < s.StartMS {
				t.Errorf("span %+v does not nest in its root %+v", s, p)
			}
		}
	}
	if roots != res.Jobs {
		t.Errorf("%d root spans, want one per job (%d)", roots, res.Jobs)
	}
	if len(res.Budget) == 0 {
		t.Fatal("no budget table")
	}
}
