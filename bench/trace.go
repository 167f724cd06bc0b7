package main

import (
	"fmt"
	"io"
	"path/filepath"
	"sort"
)

// span is one interval at a layer boundary, recorded by the harness from
// outside the program. Spans of one job share Job (round/id: every round
// has a daemon of its own); Parent is the span that caused this one (0 =
// none). Times are milliseconds on the clock of the round's daemon.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Job     string  `json:"job,omitempty"`
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
}

func (s span) durMS() float64 { return s.EndMS - s.StartMS }

// The children of a job's root span, in the order they block the result.
// Server-side boundaries come from the job view's created/started/finished
// stamps; the client observes the rest. The 202's way back overlaps the job
// and is not a span of its own: it blocks nothing unless the job is already
// over, and then it is part of server.notify.
var jobSpanNames = []string{"gen.late", "http.submit", "server.queue", "server.run", "server.notify", "http.fetch"}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	spans  []span
	nextID int
}

func (t *tracer) add(parent int, job, name string, start, end float64) int {
	t.nextID++
	t.spans = append(t.spans, span{ID: t.nextID, Parent: parent, Job: job, Name: name, StartMS: start, EndMS: end})
	return t.nextID
}

// addJob records a job's root span and its children. The boundaries are
// clamped into order, which absorbs the clock bracket (tens of
// microseconds) where a stage is shorter than it; the children therefore
// partition the root, whose own self time is nil.
func (t *tracer) addJob(r *jobRecord) {
	bounds := []float64{r.Due, r.Send, r.View.CreatedMS, r.View.StartedMS, r.View.FinishedMS, r.EOF, r.Done}
	for i := 1; i < len(bounds); i++ {
		bounds[i] = min(max(bounds[i], bounds[i-1]), r.Done)
	}
	job := fmt.Sprintf("%d/%s", r.Round, r.View.ID)
	root := t.add(0, job, "job", r.Due, r.Done)
	for i, name := range jobSpanNames {
		if bounds[i+1] > bounds[i] {
			t.add(root, job, name, bounds[i], bounds[i+1])
		}
	}
}

// selfTimes returns each span's duration minus the part of it that its
// child spans cover, by span ID.
func selfTimes(spans []span) map[int]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartMS < kids[j].StartMS })
		covered, edge := 0.0, s.StartMS
		for _, k := range kids {
			lo, hi := max(k.StartMS, edge), min(k.EndMS, s.EndMS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.durMS() - covered
	}
	return self
}

// budgetRow is one line of the budget table.
type budgetRow struct {
	Span   string  `json:"span"`
	SelfMS float64 `json:"self_ms"`
	Share  float64 `json:"share_of_done_ms_p50"`
}

// budget is where a typical job's time goes: the mean self time of each
// child span over the tenth of the jobs around the median latency. Their
// latencies average to the median even where the distribution is wide or
// has two humps, and unlike per-span medians the rows add up to it.
func budget(spans []span, p50 float64) []budgetRow {
	self := selfTimes(spans)
	type jobSpans struct {
		latency float64
		self    map[string]float64
	}
	jobs := map[int]*jobSpans{}
	for _, s := range spans {
		if s.Name == "job" {
			jobs[s.ID] = &jobSpans{latency: s.durMS(), self: map[string]float64{}}
		}
	}
	for _, s := range spans {
		if j := jobs[s.Parent]; j != nil {
			j.self[s.Name] += self[s.ID]
		}
	}
	ordered := make([]*jobSpans, 0, len(jobs))
	for _, j := range jobs {
		ordered = append(ordered, j)
	}
	sort.Slice(ordered, func(i, k int) bool { return ordered[i].latency < ordered[k].latency })
	if len(ordered) == 0 || p50 <= 0 {
		return nil
	}
	lo := len(ordered) * 9 / 20
	mid := ordered[lo:max(len(ordered)*11/20, lo+1)]
	var rows []budgetRow
	total := 0.0
	for _, name := range jobSpanNames {
		sum := 0.0
		for _, j := range mid {
			sum += j.self[name]
		}
		ms := sum / float64(len(mid))
		total += ms
		rows = append(rows, budgetRow{name, ms, ms / p50})
	}
	return append(rows, budgetRow{"sum", total, total / p50})
}

func printBudget(w io.Writer, workload string, rows []budgetRow, notes []budgetRow) {
	fmt.Fprintf(w, "budget %s: span self time, mean over the tenth of the jobs around the median latency\n", workload)
	for _, r := range rows {
		if r.SelfMS > 0 { // gen.late is nil in a closed loop
			fmt.Fprintf(w, "  %-22s %10.4f ms  %6.1f%% of done_ms_p50\n", r.Span, r.SelfMS, 100*r.Share)
		}
	}
	for _, r := range notes {
		fmt.Fprintf(w, "  of which %-13s %10.4f ms  %6.1f%% (from the layer's probe)\n", r.Span, r.SelfMS, 100*r.Share)
	}
}

// maxTraceJobs caps the jobs whose spans go to the trace file; the budget
// and the metrics use every span.
const maxTraceJobs = 2000

// traceFile is what a traced run leaves in bench/out/.
type traceFile struct {
	Workload string      `json:"workload"`
	Env      environment `json:"env"`
	Note     string      `json:"note"`
	Budget   []budgetRow `json:"budget"`
	Spans    []span      `json:"spans"`
}

func writeTrace(root string, w *workload, env environment, rows []budgetRow, spans []span) (string, error) {
	kept, jobs := make([]span, 0, len(spans)), 0
	for _, s := range spans {
		if s.Name == "job" {
			jobs++
		}
		if s.Job == "" || jobs <= maxTraceJobs {
			kept = append(kept, s)
		}
	}
	path := filepath.Join(root, "bench", "out", w.Name+".trace.json")
	return path, writeJSON(path, traceFile{
		Workload: w.Name,
		Env:      env,
		Note:     fmt.Sprintf("times are ms since the start of the round's daemon; spans of the first %d jobs and of every probe call (on the last round's clock)", maxTraceJobs),
		Budget:   rows,
		Spans:    kept,
	})
}
