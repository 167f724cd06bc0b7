package server

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"skandium"
	"skandium/internal/journal"
)

// get renders one GET of path as srv answers it.
func get(srv *Server, path string) string {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return fmt.Sprintf("GET %s %d\n%s", path, rec.Code, rec.Body)
}

// views renders everything a client reads of one job: GET /jobs/{id}, its
// /decisions and /timeline, its lines of /metrics, and its /events.
func views(srv *Server, id string) string {
	var b strings.Builder
	for _, path := range []string{"/jobs/" + id, "/jobs/" + id + "/decisions", "/jobs/" + id + "/timeline"} {
		b.WriteString(get(srv, path))
	}
	for _, line := range strings.Split(get(srv, "/metrics"), "\n") {
		if strings.Contains(line, `job="`+id+`"`) {
			b.WriteString(line + "\n")
		}
	}
	b.WriteString(eventViews(srv, id))
	return b.String()
}

// eventViews renders a job's /events in full, from mid-log, and from a
// cursor before the window of a ring that wrapped: a truncation marker, then
// the records it keeps.
func eventViews(srv *Server, id string) string {
	j, ok := srv.Job(id)
	if !ok {
		return "no job " + id + "\n"
	}
	log := j.events()
	n, dropped := log.len(), log.droppedCount()
	return get(srv, "/jobs/"+id+"/events") +
		get(srv, fmt.Sprintf("/jobs/%s/events?from=%d", id, n/2)) +
		get(srv, fmt.Sprintf("/jobs/%s/events?from=%d", id, dropped/2))
}

// viewsWith renders j's views as they read with h (nil: no execution at
// all, the form of a job that never ran) in place of the job's outcome.
func viewsWith(srv *Server, j *job, h execution) string {
	j.mu.Lock()
	own := j.handle
	j.handle = h
	j.mu.Unlock()
	defer func() {
		j.mu.Lock()
		j.handle = own
		j.mu.Unlock()
	}()
	return views(srv, j.id)
}

// liveHandles keeps, for every job srv freezes, the execution its outcome
// replaced — the live handle or the cluster run — and the job's /events as
// they read from its live log.
type liveHandles struct {
	mu     sync.Mutex
	by     map[string]execution
	events map[string]string
}

func keepLiveHandles(srv *Server) *liveHandles {
	lh := &liveHandles{by: map[string]execution{}, events: map[string]string{}}
	srv.beforeFreeze = func(j *job) {
		_, _, h, _, _, _, _ := j.snapshot()
		events := eventViews(srv, j.id)
		lh.mu.Lock()
		lh.by[j.id], lh.events[j.id] = h, events
		lh.mu.Unlock()
	}
	return lh
}

// check waits for j to be frozen and compares the views rendered from its
// live handle — stopped when the hook saw it: its last running muscle
// finished, its controller let go — with the views of its outcome, and the
// /events read from the outcome with those read from the live log.
func (lh *liveHandles) check(t *testing.T, srv *Server, j *job, what string) string {
	t.Helper()
	waitFrozen(t, j)
	lh.mu.Lock()
	h, ok := lh.by[j.id]
	events := lh.events[j.id]
	lh.mu.Unlock()
	if !ok {
		t.Fatalf("%s: %s was frozen without passing the hook", what, j.id)
	}
	live, frozen := viewsWith(srv, j, h), views(srv, j.id)
	if frozen != live {
		t.Fatalf("%s: views of %s differ across the freeze\nlive:\n%s\nfrozen:\n%s", what, j.id, live, frozen)
	}
	if trimmed := eventViews(srv, j.id); trimmed != events {
		t.Fatalf("%s: /events of %s differ across the trim\nlive:\n%s\ntrimmed:\n%s", what, j.id, events, trimmed)
	}
	return frozen
}

func submit(t *testing.T, srv *Server, spec SubmitSpec) *job {
	t.Helper()
	j, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func waitRunning(t *testing.T, j *job) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st, _, _, _, _, _, _ := j.snapshot(); st == stateRunning {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never started", j.id)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFinishedViewsByteIdentical: freezing a finished job to its outcome
// changes no byte a client can read. For every kind of finished job the
// views rendered from the live handle, once it has stopped, equal the views
// rendered from the frozen handle; for jobs that never had a live
// handle they equal the views rendered with no handle at all.
func TestFinishedViewsByteIdentical(t *testing.T) {
	chaos := func(extra skandium.Params) skandium.Params {
		p := skandium.Params{"k": 4, "m": 4, "cell_ms": 1, "seed": 3, "fail_rate": 0.25}
		for k, v := range extra {
			p[k] = v
		}
		return p
	}

	t.Run("goal job with decisions", func(t *testing.T) {
		srv, _ := newTestDaemon(t, Config{Budget: 6, Rebalance: 5 * time.Millisecond,
			AnalysisTick: 2 * time.Millisecond, AnalysisInterval: time.Millisecond})
		lh := keepLiveHandles(srv)
		j := submit(t, srv, SubmitSpec{Skeleton: "sleepgrid",
			Params: skandium.Params{"k": 4, "m": 4, "cell_ms": 8}, Goal: 40 * time.Millisecond})
		lh.check(t, srv, j, "goal job")
		if len(j.handle.Decisions()) == 0 {
			t.Fatal("the goal job made no decision: nothing to freeze")
		}
	})

	t.Run("wrapped event ring", func(t *testing.T) {
		srv, _ := newTestDaemon(t, Config{Budget: 4, EventLog: 16})
		lh := keepLiveHandles(srv)
		j := submit(t, srv, SubmitSpec{Skeleton: "sleepgrid", Params: skandium.Params{"k": 4, "m": 4, "cell_ms": 1}})
		out := lh.check(t, srv, j, "wrapped ring")
		if j.log.droppedCount() == 0 || !strings.Contains(out, `"truncated"`) {
			t.Fatalf("the ring did not wrap:\n%s", out)
		}
	})

	t.Run("partial=skip job with failed branches", func(t *testing.T) {
		srv, _ := newTestDaemon(t, Config{Budget: 4})
		lh := keepLiveHandles(srv)
		j := submit(t, srv, SubmitSpec{Skeleton: "chaosgrid", Params: chaos(nil), Partial: "skip"})
		lh.check(t, srv, j, "skip job")
		if f := j.handle.Failures(); f == nil || len(f.Failures) == 0 {
			t.Fatal("the skip job lost no branch: nothing to freeze")
		}
	})

	t.Run("retrying chaosgrid job, journaled", func(t *testing.T) {
		jn, _ := openJournal(t, t.TempDir())
		defer jn.Close()
		srv, _ := newTestDaemon(t, Config{Budget: 4, Journal: jn})
		lh := keepLiveHandles(srv)
		j := submit(t, srv, SubmitSpec{Skeleton: "chaosgrid", Params: chaos(nil), RetryAttempts: 20})
		lh.check(t, srv, j, "retrying job")
		if j.handle.FaultStats().Retries == 0 || j.faultRetries.Load() == 0 {
			t.Fatal("the retrying job retried nothing: nothing to freeze")
		}
	})

	// Cancel resolves the job at once, but the 40 ms muscle it interrupts
	// runs on and is counted when it ends: the frozen counts must include it.
	t.Run("canceled while running", func(t *testing.T) {
		srv, _ := newTestDaemon(t, Config{Budget: 4})
		lh := keepLiveHandles(srv)
		j := submit(t, srv, SubmitSpec{Skeleton: "sleepgrid",
			Params: skandium.Params{"k": 4, "m": 4, "cell_ms": 40}, MaxLP: 1})
		waitRunning(t, j)
		_, _, h, _, _, _, _ := j.snapshot()
		for h.Stats().TasksRun == 0 || h.Active() == 0 {
			time.Sleep(100 * time.Microsecond)
		}
		srv.Cancel(j.id)
		lh.check(t, srv, j, "canceled running job")
		if st, _, _, _, _, _, _ := j.snapshot(); st != stateCanceled {
			t.Fatalf("state %s, want canceled", st)
		}
	})

	t.Run("canceled while queued", func(t *testing.T) {
		srv, _ := newTestDaemon(t, Config{Budget: 1})
		blocker := submit(t, srv, SubmitSpec{Skeleton: "sleepgrid",
			Params: skandium.Params{"k": 2, "m": 2, "cell_ms": 20}, MaxLP: 1})
		j := submit(t, srv, SubmitSpec{Skeleton: "sleepgrid", Params: skandium.Params{"k": 1, "m": 1, "cell_ms": 1}})
		if st, _, _, _, _, _, _ := j.snapshot(); st != stateQueued {
			t.Fatalf("second job is %s, want queued behind the first", st)
		}
		srv.Cancel(j.id)
		waitFrozen(t, j)
		if got, want := views(srv, j.id), viewsWith(srv, j, nil); got != want {
			t.Fatalf("views differ\nwithout a handle:\n%s\nfrozen:\n%s", want, got)
		}
		srv.Cancel(blocker.id)
	})

	t.Run("cluster-routed job", func(t *testing.T) {
		srv, _, _ := newTestClusterDaemon(t, 2)
		lh := keepLiveHandles(srv)
		j := submit(t, srv, SubmitSpec{Skeleton: "sleepgrid", Params: skandium.Params{"k": 4, "m": 4, "cell_ms": 2}})
		out := lh.check(t, srv, j, "cluster job")
		if !strings.Contains(jobEvents(j), "cluster@route") || !strings.Contains(out, `"result": "16"`) {
			t.Fatalf("the job did not run on the cluster to its result:\n%s", out)
		}
	})

	t.Run("snapshot-restored job", func(t *testing.T) {
		dir := t.TempDir()
		jn1, _ := openJournal(t, dir)
		_ = jn1.Submit("job-1", sleepSpec(5))
		_ = jn1.Start("job-1")
		_ = jn1.Fault("job-1", journal.FaultCounts{Retries: 2})
		_ = jn1.Finish("job-1", journal.StateDone, "16", "", journal.FaultCounts{Retries: 2, Skipped: 1})
		_ = jn1.Submit("job-2", sleepSpec(5))
		_ = jn1.Finish("job-2", journal.StateFailed, "", "boom", journal.FaultCounts{Faults: 1})
		_ = jn1.Close()
		jn2, states := openJournal(t, dir)
		defer jn2.Close()
		srv, _ := newTestDaemon(t, Config{Budget: 2, Journal: jn2, Recover: states})
		for _, id := range []string{"job-1", "job-2"} {
			j, ok := srv.Job(id)
			if !ok {
				t.Fatalf("%s not restored", id)
			}
			waitFrozen(t, j)
			got, want := views(srv, id), viewsWith(srv, j, nil)
			if got != want {
				t.Fatalf("%s: views differ\nwithout a handle:\n%s\nfrozen:\n%s", id, want, got)
			}
			if !strings.Contains(got, `"recovered": true`) {
				t.Fatalf("%s: not marked recovered:\n%s", id, got)
			}
		}
		if got := views(srv, "job-1"); !strings.Contains(got, `"retries_total": 2`) || !strings.Contains(got, `"skipped_total": 1`) {
			t.Fatalf("job-1 lost its journaled fault counts:\n%s", got)
		}
	})
}

// TestFinishedJobIgnoresLevers: DELETE /jobs/{id} and PATCH /jobs/{id}/qos
// on a finished job that is still retained move nothing: the job's view,
// goal and LP cap included, and its decisions read byte for byte the same
// before and after, and the job is still its outcome, which has no lever.
func TestFinishedJobIgnoresLevers(t *testing.T) {
	srv, ts := newTestDaemon(t, Config{Budget: 4})
	j := finish(t, submit(t, srv, SubmitSpec{Skeleton: "sleepgrid",
		Params: skandium.Params{"k": 4, "m": 4, "cell_ms": 2}, Goal: 20 * time.Millisecond}))
	url := ts.URL + "/jobs/" + j.id
	before, decisions := getJSON[jobView](t, url), get(srv, "/jobs/"+j.id+"/decisions")
	view := get(srv, "/jobs/"+j.id)
	if before.Decisions == 0 {
		t.Fatalf("%s finished with no decisions to keep", j.id)
	}
	for _, r := range []struct{ method, path, body string }{
		{"DELETE", "", ""},
		{"PATCH", "/qos", `{"goal_ms":500,"max_lp":1}`},
	} {
		if code := status(t, r.method, url+r.path, r.body); code != http.StatusOK {
			t.Fatalf("%s %s%s of a finished job: %d, want 200", r.method, j.id, r.path, code)
		}
	}
	after := getJSON[jobView](t, url)
	if after.State != before.State || after.Result != before.Result || after.Decisions != before.Decisions {
		t.Fatalf("levers moved a finished job: %+v, was %+v", after, before)
	}
	if got := get(srv, "/jobs/"+j.id); got != view {
		t.Fatalf("the view of a finished job moved:\n%s\nwas:\n%s", got, view)
	}
	if got := get(srv, "/jobs/"+j.id+"/decisions"); got != decisions {
		t.Fatalf("decisions moved:\n%s\nwas:\n%s", got, decisions)
	}
	j.mu.Lock()
	_, frozen := j.handle.(*outcome)
	j.mu.Unlock()
	if !frozen {
		t.Fatal("the levers unfroze a finished job")
	}
}

// TestCancelAndPatchWhileCompleting races Cancel and PATCH /qos against jobs
// completing and being frozen (run it under -race): every job ends done or
// canceled, frozen, without its runner, and its views no longer move.
func TestCancelAndPatchWhileCompleting(t *testing.T) {
	srv, _ := newTestDaemon(t, Config{Budget: 8, Rebalance: time.Millisecond,
		AnalysisTick: time.Millisecond, AnalysisInterval: time.Millisecond})
	rng := rand.New(rand.NewSource(1))
	var wg sync.WaitGroup
	jobs := make([]*job, 24)
	for i := range jobs {
		j := submit(t, srv, SubmitSpec{Skeleton: "sleepgrid",
			Params: skandium.Params{"k": 2, "m": 2, "cell_ms": 1}, Goal: 20 * time.Millisecond})
		jobs[i] = j
		cancelAfter := time.Duration(rng.Intn(6000)) * time.Microsecond
		wg.Add(2)
		go func() {
			defer wg.Done()
			time.Sleep(cancelAfter)
			srv.Cancel(j.id)
		}()
		go func() {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				goal, maxLP := time.Duration(10+k)*time.Millisecond, 1+k%4
				if err := srv.AdjustQoS(j.id, &goal, &maxLP); err != nil {
					t.Error(err)
					return
				}
				_ = views(srv, j.id)
				time.Sleep(100 * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	for _, j := range jobs {
		waitFrozen(t, j)
		if st, _, _, _, _, _, _ := j.snapshot(); st != stateDone && st != stateCanceled {
			t.Fatalf("%s ended %s, want done or canceled", j.id, st)
		}
		if a, b := views(srv, j.id), views(srv, j.id); a != b {
			t.Fatalf("%s: a frozen job's views moved\n%s\n%s", j.id, a, b)
		}
	}
}
