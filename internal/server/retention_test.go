package server

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"skandium"
	"skandium/internal/journal"
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
// waits for the job to be frozen to its outcome, and checks it succeeded.
func finish(t *testing.T, j *job) *job {
	t.Helper()
	j.events().reader(1<<62).stream(context.Background(), io.Discard, func() {}, true)
	waitFrozen(t, j)
	if st, _, _, _, _, sum, err := j.snapshot(); st != stateDone || err != nil {
		t.Fatalf("%s: state %s, result %s, error %v", j.id, st, sum, err)
	}
	return j
}

// waitFrozen blocks until watch has frozen j to its outcome, then checks
// that the job holds no live part and that the outcome's log is trimmed.
func waitFrozen(t *testing.T, j *job) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		j.mu.Lock()
		o, frozen := j.handle.(*outcome)
		held := j.live != nil || j.log != events(o)
		j.mu.Unlock()
		if frozen {
			if held {
				t.Fatalf("%s: frozen, but it still holds its live part", j.id)
			}
			if buf := o.events.buf; cap(buf) != len(buf) {
				t.Fatalf("%s: frozen with %d bytes of slack in its log", j.id, cap(buf)-len(buf))
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: never frozen (handle %T)", j.id, j.handle)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// outcomeOf returns the outcome of a frozen job.
func outcomeOf(t *testing.T, j *job) *outcome {
	t.Helper()
	o, ok := j.events().(*outcome)
	if !ok {
		t.Fatalf("%s is not frozen", j.id)
	}
	return o
}

// TestFinishedJobRetention: what a finished fine-grained job keeps the daemon
// from freeing. Each of the 200 jobs is the benchmark's fanout_fine shape
// (a 500-way map: 502 tasks, 2006 events) with a follower attached past the
// end, as bench/ waits for its jobs. Before the compact log and the
// tree-less tracker a job retained 612 KB; with them, 148.6 KB, of which the
// stream, pool and 40-byte gauge samples went when a finished job became its
// outcome: 117.9 KB, of which the 2006 48-byte records were 96 KB. With the
// log packed when the job froze, 41.7–43.0 KB: the packed records (20 KB,
// 10 bytes each), 1005 16-byte gauge samples and the job itself. With only
// the deltas that moved packed and the gauge series kept as varint deltas,
// 22.1–22.8 KB: the records in 14.6 KB (7.3 bytes each), the series in
// 4.4 KB and the job itself. With each record packed against the last of
// its where, 11.6–12.8 KB; with the job its outcome, 10.1–12.3 KB.
func TestFinishedJobRetention(t *testing.T) {
	const (
		jobs     = 200
		perJobKB = 27
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
// nothing reachable from it may pin either: its handle is its outcome,
// which holds no controller at all. Before the controller's graph became one
// flat graph kept across analyses and dropped at the end, a finished goal job
// retained 62.7–62.9 KB here; after it, 44.9 KB; with the job frozen to its
// outcome, 29.8 KB; with its 326 records packed in place of two 256-slot
// chunks, 8.9–9.3 KB; with only the deltas that moved packed and its 165
// gauge samples as varint deltas, 4.6–4.8 KB; with each record packed
// against the last of its where, 3.6–3.7 KB; with the job its outcome, whose
// readings keep only what the views show of the controller's demand, 2.8 KB.
func TestFinishedGoalJobRetention(t *testing.T) {
	const (
		jobs     = 40
		perJobKB = 6
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

// TestFinishedTinyJobRetention: the same for durable_tiny's shape — a
// one-cell sleepgrid of 50 µs on a journaled daemon — where the job's own
// bookkeeping is all there is: its event log of 18 records, its view fields,
// its journal entry. A finished tiny job retained 11.1 KB while it kept its
// runner and live handle, 3.12 KB with its records trimmed to 18 slots,
// 2.44–2.49 KB with them packed, 2.17–2.24 KB with only the deltas that
// moved packed (89 bytes) and its 11 gauge samples in 47, and 1.23–1.25 KB
// as its outcome: one 128-byte record of readings, packed events and gauge
// bytes in place of the frozen handle, the live log and the recorder, its
// params kept as JSON in place of a map the journal shared, the journal's
// entry holding its spec as JSON, and its program text interned.
func TestFinishedTinyJobRetention(t *testing.T) {
	const (
		jobs     = 300
		perJobKB = 1.5
	)
	jn, _, err := journal.Open(t.TempDir(), journal.Options{Fsync: journal.FsyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	defer jn.Close()
	srv := New(Config{Budget: 4, Journal: jn})
	defer srv.Close()
	perJob, last := retainedPerJob(t, jobs, func() *job {
		j, err := srv.Submit(SubmitSpec{
			Skeleton: "sleepgrid",
			Params:   skandium.Params{"k": 1, "m": 1, "cell_ms": 0.05},
		})
		if err != nil {
			t.Fatal(err)
		}
		return finish(t, j)
	})
	if n := last.log.len(); n != 18 {
		t.Fatalf("a tiny job logged %d events, want 18", n)
	}
	t.Logf("retained per finished tiny job: %.2f KB", float64(perJob)/1024)
	if float64(perJob) > perJobKB*1024 {
		t.Fatalf("a finished tiny job retains %.2f KB, want at most %.1f KB", float64(perJob)/1024, perJobKB)
	}
}

// TestFinishedTinyHTTPJobRetention: TestFinishedTinyJobRetention's job
// submitted as every bench/ job is, through POST /jobs, whose params decode
// from JSON into a fresh map of boxed float64 values. Measured on the code
// before the job became its outcome, it retained 2.22 KB, and 1.23 KB with
// it; its bound is its twin's, which leaves the same margin.
func TestFinishedTinyHTTPJobRetention(t *testing.T) {
	const (
		jobs     = 300
		perJobKB = 1.5
	)
	jn, _, err := journal.Open(t.TempDir(), journal.Options{Fsync: journal.FsyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	defer jn.Close()
	srv := New(Config{Budget: 4, Journal: jn})
	defer srv.Close()
	h := srv.Handler()
	const body = `{"skeleton":"sleepgrid","params":{"k":1,"m":1,"cell_ms":0.05}}`
	perJob, last := retainedPerJob(t, jobs, func() *job {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/jobs", strings.NewReader(body)))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("submit: status %d: %s", rec.Code, rec.Body)
		}
		j, ok := srv.Job(idOf(t, rec.Body.Bytes()))
		if !ok {
			t.Fatalf("submitted job not in the table: %s", rec.Body)
		}
		return finish(t, j)
	})
	if n := last.log.len(); n != 18 {
		t.Fatalf("a tiny job logged %d events, want 18", n)
	}
	if got := string(last.params); got != `{"cell_ms":0.05,"k":1,"m":1}` {
		t.Fatalf("the job keeps params %s", got)
	}
	t.Logf("retained per finished tiny job submitted over HTTP: %.2f KB", float64(perJob)/1024)
	if float64(perJob) > perJobKB*1024 {
		t.Fatalf("a finished tiny job submitted over HTTP retains %.2f KB, want at most %.1f KB", float64(perJob)/1024, perJobKB)
	}
}
