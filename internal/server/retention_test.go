package server

import (
	"context"
	"io"
	"reflect"
	"runtime"
	"testing"
	"time"

	"skandium"
)

// retainedPerJob runs warm jobs (plan cache, estimators, pools of the
// runtime), then jobs more, keeping every one, and returns the heap they
// keep alive per job, with the last of them.
func retainedPerJob(t *testing.T, jobs int, run func() *job) (int64, *job) {
	t.Helper()
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for i := 0; i < 10; i++ {
		run()
	}
	before := heap()
	kept := make([]*job, jobs)
	for i := range kept {
		kept[i] = run()
	}
	after := heap()
	return (int64(after) - int64(before)) / int64(jobs), kept[jobs-1]
}

// finish follows j's event log past its end, as bench/ waits for its jobs,
// and checks it succeeded.
func finish(t *testing.T, j *job) *job {
	t.Helper()
	j.log.reader(1<<62).stream(context.Background(), io.Discard, func() {}, true)
	if st, _, _, _, _, res, err := j.snapshot(); st != stateDone || err != nil {
		t.Fatalf("%s: state %s, result %v, error %v", j.id, st, res, err)
	}
	return j
}

// TestFinishedJobRetention: what a finished fine-grained job keeps the daemon
// from freeing. Each of the 200 jobs is the benchmark's fanout_fine shape
// (a 500-way map: 502 tasks, 2006 events) with a follower attached past the
// end, as bench/ waits for its jobs. Before the compact log and the
// tree-less tracker a job retained 612 KB; the bound leaves the 2006 records
// (96 KB), the gauge series and the job itself.
func TestFinishedJobRetention(t *testing.T) {
	const (
		jobs     = 200
		perJobKB = 200
	)
	srv := New(Config{Budget: 4})
	defer srv.Close()
	perJob, last := retainedPerJob(t, jobs, func() *job {
		j, err := srv.Submit(SubmitSpec{
			Skeleton:  "montecarlo",
			Params:    skandium.Params{"samples": 500, "batches": 500},
			InitialLP: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return finish(t, j)
	})
	if n, dropped := last.log.len(), last.log.droppedCount(); n != 2006 || dropped != 0 {
		t.Fatalf("a job logged %d events and dropped %d, want 2006 and 0", n, dropped)
	}
	t.Logf("retained per finished job: %.1f KB", float64(perJob)/1024)
	if perJob > perJobKB<<10 {
		t.Fatalf("a finished job retains %.1f KB, want at most %d KB", float64(perJob)/1024, perJobKB)
	}
}

// TestFinishedGoalJobRetention: the same for a job with a WCT goal in
// goal_grid's shape — an 8×8 sleepgrid from LP 1, here with 1 ms cells and a
// 200 ms goal that a race-detector run still meets — whose controller keeps
// an ADG and a memoized prediction while the job runs. Once the job resolves
// nothing reachable from it may pin either. Before the controller's graph
// became one flat graph kept across analyses and dropped at the end, a
// finished goal job retained 62.7–62.9 KB here (five runs); the bound is
// that figure. With it: 45.6–46.5 KB.
func TestFinishedGoalJobRetention(t *testing.T) {
	const (
		jobs     = 40
		perJobKB = 63
	)
	srv := New(Config{Budget: 16})
	defer srv.Close()
	analysed := 0
	perJob, _ := retainedPerJob(t, jobs, func() *job {
		j, err := srv.Submit(SubmitSpec{
			Skeleton:  "sleepgrid",
			Params:    skandium.Params{"k": 8, "m": 8, "cell_ms": 1},
			Goal:      200 * time.Millisecond,
			InitialLP: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		finish(t, j)
		if j.handle.Analyses() > 0 {
			analysed++
		}
		if graph, memo := controllerHolds(j); graph || memo {
			t.Fatalf("%s: finished, its controller still holds its graph (%v) or memo (%v)", j.id, graph, memo)
		}
		return j
	})
	if analysed == 0 {
		t.Fatal("no goal job ran an analysis: nothing was there to release")
	}
	t.Logf("retained per finished goal job: %.1f KB", float64(perJob)/1024)
	if perJob > perJobKB<<10 {
		t.Fatalf("a finished goal job retains %.1f KB, want at most %d KB", float64(perJob)/1024, perJobKB)
	}
}

// controllerHolds reports whether the controller behind a job's handle
// still references its ADG or its memoized prediction. It reads the fields
// through reflection (handle → execution → controller), so a rename fails
// here loudly rather than passing vacuously.
func controllerHolds(j *job) (graph, memo bool) {
	ctl := reflect.ValueOf(j.handle).Elem().FieldByName("ex").Elem().FieldByName("ctl").Elem()
	return !ctl.FieldByName("live").IsNil(), !ctl.FieldByName("memo").FieldByName("pred").IsNil()
}
