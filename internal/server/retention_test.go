package server

import (
	"context"
	"io"
	"runtime"
	"testing"

	"skandium"
)

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
	run := func() *job {
		j, err := srv.Submit(SubmitSpec{
			Skeleton:  "montecarlo",
			Params:    skandium.Params{"samples": 500, "batches": 500},
			InitialLP: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		j.log.reader(1<<62).stream(context.Background(), io.Discard, func() {}, true)
		if st, _, _, _, _, res, err := j.snapshot(); st != stateDone || err != nil {
			t.Fatalf("%s: state %s, result %v, error %v", j.id, st, res, err)
		}
		return j
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	for i := 0; i < 10; i++ { // plan cache, estimators, pools of the runtime
		run()
	}
	before := heap()
	var last *job
	for i := 0; i < jobs; i++ {
		last = run()
	}
	after := heap()

	if n, dropped := last.log.len(), last.log.droppedCount(); n != 2006 || dropped != 0 {
		t.Fatalf("a job logged %d events and dropped %d, want 2006 and 0", n, dropped)
	}
	perJob := (int64(after) - int64(before)) / jobs
	t.Logf("retained per finished job: %.1f KB", float64(perJob)/1024)
	if perJob > perJobKB<<10 {
		t.Fatalf("a finished job retains %.1f KB, want at most %d KB", float64(perJob)/1024, perJobKB)
	}
}
