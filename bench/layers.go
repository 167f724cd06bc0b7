package main

import (
	"skandium/internal/journal"
)

// layerDef declares a per-layer metric; BENCHMARK.json lists the same
// names and the self-test holds the two together. Every traced run reports
// every one of them: a layer the workload bypasses reports the zeros that
// show it was bypassed.
type layerDef struct{ Name, Unit, Better string }

var perLayerDefs = []layerDef{
	{"server.http_submit_us_p50", "us", "lower"},
	{"server.submit_us_p50", "us", "lower"},
	{"server.queue_ms_p50", "ms", "lower"},
	{"server.run_ms_p50", "ms", "lower"},
	{"server.notify_us_p50", "us", "lower"},
	{"server.http_fetch_us_p50", "us", "lower"},
	{"server.shed_share", "share", "lower"},
	{"server.slow_share", "share", "lower"},
	{"server.heap_kb_per_job", "KB", "lower"},
	{"journal.appends_per_job", "count", "lower"},
	{"journal.fsyncs_per_job", "count", "lower"},
	{"journal.bytes_per_job", "B", "lower"},
	{"journal.rotations", "count", "lower"},
	{"journal.append_us_p50.always", "us", "lower"},
	{"journal.append_us_p50.interval", "us", "lower"},
	{"journal.append_us_p50.never", "us", "lower"},
	{"journal.replay_ms", "ms", "lower"},
	{"core.decisions_per_job", "count", "lower"},
	{"core.analyses_per_job", "count", "lower"},
	{"core.first_raise_ms_p50", "ms", "lower"},
	{"core.lp_s_per_job", "s", "lower"},
	{"core.goal_slack_ms_p50", "ms", "higher"},
	{"core.rebalance_us_p50.m16", "us", "lower"},
	{"core.rebalance_us_p50.m1024", "us", "lower"},
	{"plan.compile_us_p50", "us", "lower"},
	{"plan.of_cached_ns_p50", "ns", "lower"},
	{"exec.tasks_per_job", "count", "lower"},
	{"exec.avg_parallelism", "count", "higher"},
	{"exec.lib_jobs_per_s", "1/s", "higher"},
	{"exec.task_overhead_us", "us", "lower"},
	{"event.events_per_job", "count", "lower"},
	{"event.dropped_per_job", "count", "lower"},
	{"remote.run_ms_p50", "ms", "lower"},
	{"remote.overhead_ms_p50", "ms", "lower"},
	{"remote.hedged_per_job", "count", "lower"},
	{"remote.degraded_per_job", "count", "lower"},
	{"remote.deduped_per_job", "count", "lower"},
	{"remote.shed_per_job", "count", "lower"},
	{"gen.late_ms_p50", "ms", "lower"},
}

// counters is what the daemon's public counters read at one moment.
type counters struct {
	HeapMB       float64
	Journal      journal.Counters
	JournalBytes int64
	Hedged       int64
	Degraded     int64
	Deduped      int64
	Shed         int64
}

// counters reads them; the live heap costs two collections, which both
// kinds of run pay at both ends of the phase, so both start it alike.
func (d *daemon) counters() counters {
	c := counters{HeapMB: heapMB(), JournalBytes: d.journalBytes()}
	if d.jn != nil {
		c.Journal = d.jn.Counters()
	}
	if d.cluster != nil {
		c.Hedged, c.Degraded = d.cluster.Hedged(), d.cluster.Degraded()
	}
	for _, wk := range d.workers {
		c.Deduped += wk.Deduped()
		c.Shed += wk.Shed()
	}
	return c
}

// minus and plus work field by field: a phase's delta, and deltas added up
// over the rounds.
func (c counters) minus(o counters) counters {
	c.HeapMB -= o.HeapMB
	c.Journal.Appends -= o.Journal.Appends
	c.Journal.Fsyncs -= o.Journal.Fsyncs
	c.Journal.Rotations -= o.Journal.Rotations
	c.JournalBytes -= o.JournalBytes
	c.Hedged -= o.Hedged
	c.Degraded -= o.Degraded
	c.Deduped -= o.Deduped
	c.Shed -= o.Shed
	return c
}

func (c counters) plus(o counters) counters {
	c.HeapMB += o.HeapMB
	c.Journal.Appends += o.Journal.Appends
	c.Journal.Fsyncs += o.Journal.Fsyncs
	c.Journal.Rotations += o.Journal.Rotations
	c.JournalBytes += o.JournalBytes
	c.Hedged += o.Hedged
	c.Degraded += o.Degraded
	c.Deduped += o.Deduped
	c.Shed += o.Shed
	return c
}

// fromRecords computes the per-layer metrics that come from what the
// measured jobs showed from outside: client timestamps, the job view's
// stamps and counters, and counter deltas over the measured phases.
func fromRecords(m *measured, out map[string]metric) {
	n := float64(len(m.Recs))
	var submit, queue, run, notify, fetch, late, raise, slack, lpS []float64
	var decisions, analyses, tasks, events, dropped, busy, runSum float64
	ok := 0.0
	for i := range m.Recs {
		r := &m.Recs[i]
		if !r.OK {
			continue
		}
		v := &r.View
		ok++
		decisions += float64(v.Decisions)
		analyses += float64(v.Analyses)
		tasks += float64(v.TasksRun)
		events += float64(v.Events)
		dropped += float64(v.EventsDropped)
		busy += v.BusyMS
		runSum += v.FinishedMS - v.StartedMS
		submit = append(submit, (r.Ack-r.Send)*1e3)
		queue = append(queue, v.StartedMS-v.CreatedMS)
		run = append(run, v.FinishedMS-v.StartedMS)
		notify = append(notify, (r.EOF-v.FinishedMS)*1e3)
		fetch = append(fetch, (r.Done-r.EOF)*1e3)
		late = append(late, r.Send-r.Due)
		if v.GoalMS > 0 {
			slack = append(slack, v.GoalMS-(v.FinishedMS-v.StartedMS))
			lpS = append(lpS, r.LPSeconds)
			if r.FirstRaiseMS >= 0 {
				raise = append(raise, r.FirstRaiseMS)
			}
		}
	}
	perOK := func(sum float64) float64 {
		if ok == 0 {
			return 0
		}
		return sum / ok
	}
	c, d := tally(m.Recs), m.Delta
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	put("server.http_submit_us_p50", median(submit), "us")
	put("server.queue_ms_p50", median(queue), "ms")
	put("server.run_ms_p50", median(run), "ms")
	put("server.notify_us_p50", median(notify), "us")
	put("server.http_fetch_us_p50", median(fetch), "us")
	put("server.shed_share", float64(c.Refused)/n, "share")
	all := latencies(m.Recs)
	slow, p50 := 0, median(all)
	for _, ms := range all {
		if ms > 2*p50 {
			slow++
		}
	}
	// Jobs that took over twice the median: long collector cycles, journal
	// compactions, and the cluster's grant episodes all land here.
	put("server.slow_share", float64(slow)/n, "share")
	put("server.heap_kb_per_job", d.HeapMB*1024/n, "KB")
	put("journal.appends_per_job", float64(d.Journal.Appends)/n, "count")
	put("journal.fsyncs_per_job", float64(d.Journal.Fsyncs)/n, "count")
	put("journal.bytes_per_job", float64(d.JournalBytes)/n, "B")
	put("journal.rotations", float64(d.Journal.Rotations), "count")
	put("core.decisions_per_job", perOK(decisions), "count")
	put("core.analyses_per_job", perOK(analyses), "count")
	put("core.first_raise_ms_p50", median(raise), "ms")
	put("core.lp_s_per_job", mean(lpS), "s")
	put("core.goal_slack_ms_p50", median(slack), "ms")
	put("exec.tasks_per_job", perOK(tasks), "count")
	if runSum > 0 {
		put("exec.avg_parallelism", busy/runSum, "count")
	} else {
		put("exec.avg_parallelism", 0, "count")
	}
	put("event.events_per_job", perOK(events), "count")
	put("event.dropped_per_job", perOK(dropped), "count")
	put("remote.hedged_per_job", float64(d.Hedged)/n, "count")
	put("remote.degraded_per_job", float64(d.Degraded)/n, "count")
	put("remote.deduped_per_job", float64(d.Deduped)/n, "count")
	put("remote.shed_per_job", float64(d.Shed)/n, "count")
	put("gen.late_ms_p50", median(late), "ms")
}
