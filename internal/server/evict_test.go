package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"skandium"
	"skandium/internal/journal"
)

// openEvictJournal opens a journal for an eviction test and closes it after
// the server the test builds next (cleanups run last-in first-out).
func openEvictJournal(t *testing.T, dir string, rotate int64) (*journal.Journal, []journal.JobState) {
	t.Helper()
	jn, states, err := journal.Open(dir, journal.Options{Fsync: journal.FsyncNever, RotateBytes: rotate})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jn.Close() })
	return jn, states
}

// runTiny runs one 50 µs sleepgrid job over HTTP the way bench/ does:
// submit, follow its events until the daemon ends the stream. It returns
// the job's id.
func runTiny(t *testing.T, base string) string {
	t.Helper()
	resp, body := postJSON(t, base+"/jobs", map[string]any{
		"skeleton": "sleepgrid",
		"params":   map[string]any{"k": 1, "m": 1, "cell_ms": 0.05},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	id := idOf(t, body)
	getNDJSON(t, base+"/jobs/"+id+"/events?follow=1")
	return id
}

// submitLong starts a serial sleepgrid of 1,000,000 cells of 5 ms, about
// 80 minutes: it outlasts any test run, a slow one under coverage
// included, unless canceled, and a cancel stops it within a cell.
func submitLong(t *testing.T, base string) string {
	t.Helper()
	resp, body := postJSON(t, base+"/jobs", map[string]any{
		"skeleton": "sleepgrid",
		"params":   map[string]any{"k": 1000, "m": 1000, "cell_ms": 5},
		"max_lp":   1,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	return idOf(t, body)
}

// idOf reads the job id off a submit reply.
func idOf(t *testing.T, body []byte) string {
	t.Helper()
	var v jobView
	if err := json.Unmarshal(body, &v); err != nil || v.ID == "" {
		t.Fatalf("submit reply %q: %v", body, err)
	}
	return v.ID
}

// waitRetired blocks until n jobs have finished and been retired, kept or
// evicted since.
func waitRetired(t *testing.T, srv *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		srv.mu.Lock()
		got := len(srv.retired) + srv.evicted
		srv.mu.Unlock()
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d jobs retired, want %d", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// status sends one request and returns its status code.
func status(t *testing.T, method, url, body string) int {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestRetentionEvictsOverHTTP runs 20×retain tiny jobs over HTTP on a
// journaled daemon beside a job that runs throughout. The table ends with
// the last retain finished jobs and the running one; every other finished
// job was evicted from it and from the journal, with three appends per job
// and none for the eviction; the snapshot a rotation writes holds retain
// terminal states; every /jobs/{id} route answers 410 for an evicted id
// and 404 for one never issued.
func TestRetentionEvictsOverHTTP(t *testing.T) {
	const (
		retain = 8
		tiny   = 20 * retain
	)
	dir := t.TempDir()
	jn, _ := openEvictJournal(t, dir, 1) // every append compacts
	srv, ts := newTestDaemon(t, Config{Budget: 2, Journal: jn, retain: retain})
	base := ts.URL

	long := submitLong(t, base)
	appends := jn.Counters().Appends
	ids := make([]string, tiny)
	for i := range ids {
		ids[i] = runTiny(t, base)
	}
	waitRetired(t, srv, tiny)
	if got := jn.Counters().Appends - appends; got != 3*tiny {
		t.Fatalf("%d journal appends for %d jobs, want 3 per job", got, tiny)
	}

	want := append([]string{long}, ids[tiny-retain:]...)
	if got := srv.JobIDs(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("job table = %v, want the running %s and the last %d finished %v", got, long, retain, want[1:])
	}
	if v := getJSON[jobView](t, base+"/jobs/"+long); v.State != "running" {
		t.Fatalf("%s is %s, want running", long, v.State)
	}
	if n := len(getJSON[[]jobView](t, base+"/jobs")); n != retain+1 {
		t.Fatalf("GET /jobs lists %d jobs, want %d", n, retain+1)
	}
	if m := scrapeMetrics(t, base); m["skelrund_jobs_evicted_total"] != tiny-retain {
		t.Fatalf("skelrund_jobs_evicted_total = %v, want %d", m["skelrund_jobs_evicted_total"], tiny-retain)
	}
	var terminal int
	for _, st := range jn.States() {
		if st.Terminal() {
			terminal++
		}
	}
	if terminal != retain {
		t.Fatalf("the journal keeps %d terminal states, want %d", terminal, retain)
	}

	// A second long job, submitted with no job finishing, rotates the journal
	// on its submit and its start.
	long2 := submitLong(t, base)
	data, err := os.ReadFile(filepath.Join(dir, "snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), `"state": "done"`); n != retain {
		t.Fatalf("the snapshot holds %d done jobs, want %d", n, retain)
	}
	if n := strings.Count(string(data), `"state": "running"`); n != 2 {
		t.Fatalf("the snapshot holds %d running jobs, want 2", n)
	}

	for _, id := range []string{ids[0], ids[tiny-retain-1]} {
		for _, r := range []struct{ method, path, body string }{
			{"GET", "", ""},
			{"GET", "/decisions", ""},
			{"GET", "/events", ""},
			{"GET", "/events?follow=1", ""},
			{"GET", "/timeline", ""},
			{"PATCH", "/qos", `{"max_lp":2}`},
			{"DELETE", "", ""},
		} {
			if code := status(t, r.method, base+"/jobs/"+id+r.path, r.body); code != http.StatusGone {
				t.Errorf("%s /jobs/%s%s of an evicted job: %d, want 410", r.method, id, r.path, code)
			}
		}
	}
	next, _ := jobNum(long2)
	for _, id := range []string{fmt.Sprintf("job-%d", next+1), "job-0", "job-01", "job--1", "job-x", "nope"} {
		if code := status(t, "GET", base+"/jobs/"+id, ""); code != http.StatusNotFound {
			t.Errorf("GET /jobs/%s of a never-issued id: %d, want 404", id, code)
		}
	}
	if code := status(t, "GET", base+"/jobs/"+ids[tiny-1], ""); code != http.StatusOK {
		t.Fatalf("GET /jobs/%s of a kept job: %d, want 200", ids[tiny-1], code)
	}
	srv.Cancel(long)
	srv.Cancel(long2)
}

// TestEvictCanceledInPlace: a queued job canceled before it ran is retired
// like one that finished, and evicted in turn.
func TestEvictCanceledInPlace(t *testing.T) {
	srv, ts := newTestDaemon(t, Config{Budget: 1, retain: 1})
	long := submitLong(t, ts.URL)
	a := submitLong(t, ts.URL)
	b := submitLong(t, ts.URL)
	if q, _ := srv.QueueDepth(); q != 2 {
		t.Fatalf("%d jobs queued, want 2", q)
	}
	srv.Cancel(a)
	srv.Cancel(b)
	if code := status(t, "GET", ts.URL+"/jobs/"+a, ""); code != http.StatusGone {
		t.Fatalf("GET /jobs/%s: %d, want 410", a, code)
	}
	if v := getJSON[jobView](t, ts.URL+"/jobs/"+b); v.State != "canceled" {
		t.Fatalf("%s is %s, want canceled", b, v.State)
	}
	srv.Cancel(long)
}

// fleetTotals reads the fleet-wide fault totals off one /metrics scrape.
func fleetTotals(base string) (retries, faults float64, err error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, v, _ := strings.Cut(sc.Text(), " ")
		switch name {
		case "skelrund_retries_total":
			retries, err = strconv.ParseFloat(v, 64)
		case "skelrund_faults_total":
			faults, err = strconv.ParseFloat(v, 64)
		}
		if err != nil {
			return 0, 0, err
		}
	}
	return retries, faults, sc.Err()
}

// TestEvictKeepsFleetCountersMonotonic: skelrund_retries_total and
// skelrund_faults_total count every job the daemon has run, evicted ones
// and their journaled prior included. A restored job that failed twice
// after five retries before a restart, then chaos jobs that retry or fail,
// pass through a table that keeps two finished jobs: no scrape reads lower
// than the one before it, a scraper running beside the evictions included,
// and the last one reads the sum over every job.
func TestEvictKeepsFleetCountersMonotonic(t *testing.T) {
	dir := t.TempDir()
	jn, _ := openEvictJournal(t, dir, 0)
	if err := jn.Submit("job-1", sleepSpec(1)); err != nil {
		t.Fatal(err)
	}
	if err := jn.Finish("job-1", journal.StateFailed, "", "boom", journal.FaultCounts{Retries: 5, Faults: 2}); err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestDaemon(t, Config{Budget: 4, Journal: jn, Recover: jn.States(), retain: 2})
	base := ts.URL
	wantRetries, wantFaults := 5.0, 2.0

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var scrapeErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		var lastR, lastF float64
		for {
			select {
			case <-stop:
				return
			default:
			}
			r, f, err := fleetTotals(base)
			if err == nil && (r < lastR || f < lastF) {
				err = fmt.Errorf("fleet totals went down: retries %v → %v, faults %v → %v", lastR, r, lastF, f)
			}
			if err != nil {
				scrapeErr = err
				return
			}
			lastR, lastF = r, f
		}
	}()

	lastR, lastF, err := fleetTotals(base)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		extra := map[string]any{}
		if i%2 == 0 {
			extra["retries"] = 20
		}
		v := waitJob(t, base, submitChaosgrid(t, base, extra).ID, "done", "failed")
		wantRetries += float64(v.Retries)
		wantFaults += float64(v.Faults)
		waitRetired(t, srv, i+2)
		r, f, err := fleetTotals(base)
		if err != nil {
			t.Fatal(err)
		}
		if r < lastR || f < lastF {
			t.Fatalf("after job %d: retries %v → %v, faults %v → %v: an eviction made a fleet total go down", i+2, lastR, r, lastF, f)
		}
		lastR, lastF = r, f
	}
	close(stop)
	wg.Wait()
	if scrapeErr != nil {
		t.Fatal(scrapeErr)
	}
	if lastR != wantRetries || lastF != wantFaults {
		t.Fatalf("fleet totals %v retries, %v faults, want %v and %v over every job", lastR, lastF, wantRetries, wantFaults)
	}
	if wantRetries == 5 || wantFaults == 2 {
		t.Fatalf("the chaos jobs retried %v times and failed %v times: nothing to fold", wantRetries-5, wantFaults-2)
	}
	if m := scrapeMetrics(t, base); m["skelrund_jobs_evicted_total"] != 5 {
		t.Fatalf("skelrund_jobs_evicted_total = %v, want 5", m["skelrund_jobs_evicted_total"])
	}
}

// TestRetentionAcrossRestart: the log since the last compaction brings
// forgotten jobs back on a restart. Recovery retires the terminal ones in
// journal order and keeps the newest retain; an older id answers 410, and
// new ids continue past the highest one replayed.
func TestRetentionAcrossRestart(t *testing.T) {
	const (
		retain = 4
		jobs   = 5 * retain
	)
	dir := t.TempDir()
	jn1, _, err := journal.Open(dir, journal.Options{Fsync: journal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	srv1, ts1 := newTestDaemon(t, Config{Budget: 2, Journal: jn1, retain: retain})
	for i := 0; i < jobs; i++ {
		runTiny(t, ts1.URL)
	}
	waitRetired(t, srv1, jobs)
	ts1.Close()
	srv1.Close()
	if err := jn1.Close(); err != nil {
		t.Fatal(err)
	}

	jn2, states := openEvictJournal(t, dir, 0)
	if len(states) != jobs {
		t.Fatalf("replayed %d states, want all %d from the log", len(states), jobs)
	}
	srv2, ts2 := newTestDaemon(t, Config{Budget: 2, Journal: jn2, Recover: states, retain: retain})
	base := ts2.URL
	var kept []string
	for _, v := range getJSON[[]jobView](t, base+"/jobs") {
		if v.State != "done" || !v.Recovered {
			t.Fatalf("%s recovered as %s (recovered %v), want done", v.ID, v.State, v.Recovered)
		}
		kept = append(kept, v.ID)
	}
	if want := []string{"job-17", "job-18", "job-19", "job-20"}; fmt.Sprint(kept) != fmt.Sprint(want) {
		t.Fatalf("recovered %v, want the newest %d: %v", kept, retain, want)
	}
	if n := len(jn2.States()); n != retain {
		t.Fatalf("the journal keeps %d states after recovery, want %d", n, retain)
	}
	for _, id := range []string{"job-1", "job-16"} {
		if code := status(t, "GET", base+"/jobs/"+id, ""); code != http.StatusGone {
			t.Fatalf("GET /jobs/%s after the restart: %d, want 410", id, code)
		}
	}
	if code := status(t, "GET", base+"/jobs/job-21", ""); code != http.StatusNotFound {
		t.Fatalf("GET /jobs/job-21 before it is issued: %d, want 404", code)
	}
	if id := runTiny(t, base); id != "job-21" {
		t.Fatalf("the first job after the restart is %s, want job-21", id)
	}
	waitRetired(t, srv2, jobs+1)
	if got := srv2.JobIDs(); len(got) != retain || got[0] != "job-18" {
		t.Fatalf("job table after one more job = %v, want job-18 … job-21", got)
	}
}

// TestRestartNumbersPastEvictedNewest: the newest job can be evicted
// while older ones still run, and a rotation can then write a snapshot
// without it. With a cap of one, job-3 finishes before the long job-1 and
// job-2; canceling job-1 evicts job-3, and canceling job-2 rotates the
// journal. After a restart the first id issued is above every id issued
// before it, and job-3 answers 410.
func TestRestartNumbersPastEvictedNewest(t *testing.T) {
	dir := t.TempDir()
	jn1, _, err := journal.Open(dir, journal.Options{Fsync: journal.FsyncNever, RotateBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv1, ts1 := newTestDaemon(t, Config{Budget: 4, Journal: jn1, retain: 1})
	long1, long2 := submitLong(t, ts1.URL), submitLong(t, ts1.URL)
	short := runTiny(t, ts1.URL)
	if short != "job-3" {
		t.Fatalf("the short job is %s, want job-3", short)
	}
	waitRetired(t, srv1, 1)
	srv1.Cancel(long1)
	waitRetired(t, srv1, 2)
	if _, ok := srv1.Job(short); ok {
		t.Fatalf("%s is still in the table after %s finished", short, long1)
	}
	srv1.Cancel(long2)
	waitRetired(t, srv1, 3)
	ts1.Close()
	srv1.Close()
	if err := jn1.Close(); err != nil {
		t.Fatal(err)
	}

	jn2, states := openEvictJournal(t, dir, 0)
	for _, st := range states {
		if st.ID == short {
			t.Fatalf("the snapshot still holds %s", short)
		}
	}
	srv2, ts2 := newTestDaemon(t, Config{Budget: 4, Journal: jn2, Recover: states, retain: 1})
	if code := status(t, "GET", ts2.URL+"/jobs/"+short, ""); code != http.StatusGone {
		t.Fatalf("GET /jobs/%s after the restart: %d, want 410", short, code)
	}
	if id := runTiny(t, ts2.URL); id != "job-4" {
		t.Fatalf("the first job after the restart is %s, want job-4", id)
	}
	waitRetired(t, srv2, 3)
}

// TestPackedLogRestartAtSmallestCaps: a journaled daemon that keeps one
// record per event ring and one finished job. Each tiny job's 18 records
// wrap the ring, and packing it changes no byte of its /events, the
// truncation marker for the 17 it dropped included. After a restart the
// restored job has no events and its /events is closed — a follower gets
// EOF at once — the evicted ones answer 410, and the next id is new.
func TestPackedLogRestartAtSmallestCaps(t *testing.T) {
	const jobs = 3
	dir := t.TempDir()
	jn1, _, err := journal.Open(dir, journal.Options{Fsync: journal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Budget: 2, Journal: jn1, EventLog: 1, retain: 1}
	srv1, ts1 := newTestDaemon(t, cfg)
	lh := keepLiveHandles(srv1)
	for i := 0; i < jobs; i++ {
		j := submit(t, srv1, SubmitSpec{Skeleton: "sleepgrid", Params: skandium.Params{"k": 1, "m": 1, "cell_ms": 0.05}})
		lh.check(t, srv1, j, "cap-1 job")
		checkPacked(t, j.log)
		if events := eventViews(srv1, j.id); !strings.Contains(events, `"seq":17,`) || !strings.Contains(events, `"truncated":17}`) {
			t.Fatalf("%s: want the marker for 17 dropped records, then seq 17:\n%s", j.id, events)
		}
	}
	waitRetired(t, srv1, jobs)
	ts1.Close()
	srv1.Close()
	if err := jn1.Close(); err != nil {
		t.Fatal(err)
	}

	jn2, states := openEvictJournal(t, dir, 0)
	cfg.Journal, cfg.Recover = jn2, states
	srv2, ts2 := newTestDaemon(t, cfg)
	last := fmt.Sprintf("job-%d", jobs)
	if got := srv2.JobIDs(); fmt.Sprint(got) != fmt.Sprint([]string{last}) {
		t.Fatalf("restored %v, want only %s", got, last)
	}
	for _, path := range []string{"/events", "/events?follow=1"} {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		req, _ := http.NewRequestWithContext(ctx, "GET", ts2.URL+"/jobs/"+last+path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("GET %s%s: %v", last, path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		cancel()
		if err != nil || resp.StatusCode != http.StatusOK || len(body) != 0 {
			t.Fatalf("GET %s%s of a restored job: status %d, %q, %v; want 200, empty, EOF", last, path, resp.StatusCode, body, err)
		}
	}
	for i := 1; i < jobs; i++ {
		if code := status(t, "GET", fmt.Sprintf("%s/jobs/job-%d/events", ts2.URL, i), ""); code != http.StatusGone {
			t.Fatalf("GET /jobs/job-%d/events after the restart: %d, want 410", i, code)
		}
	}
	if id := runTiny(t, ts2.URL); id != fmt.Sprintf("job-%d", jobs+1) {
		t.Fatalf("the first job after the restart is %s, want job-%d", id, jobs+1)
	}
	waitRetired(t, srv2, 2)
}

// TestEvictConcurrentClients: four clients run tiny jobs at once while a
// reader lists the jobs and scrapes /metrics, so jobs retire, evict and
// are read concurrently. Afterwards the table and the journal keep exactly
// retain finished jobs, and every other one was evicted once.
func TestEvictConcurrentClients(t *testing.T) {
	const (
		retain  = 5
		clients = 4
		each    = 25
	)
	jn, _ := openEvictJournal(t, t.TempDir(), 2048)
	srv, ts := newTestDaemon(t, Config{Budget: 4, Journal: jn, retain: retain})
	base := ts.URL
	body := []byte(`{"skeleton":"sleepgrid","params":{"k":1,"m":1,"cell_ms":0.05}}`)
	run := func() error {
		resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		var v jobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted {
			return fmt.Errorf("submit: status %d, %v", resp.StatusCode, err)
		}
		resp, err = http.Get(base + "/jobs/" + v.ID + "/events?follow=1")
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return err
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients+1)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := run(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	stop := make(chan struct{})
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, path := range []string{"/jobs", "/metrics", "/healthz"} {
				resp, err := http.Get(base + path)
				if err != nil {
					errs <- err
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}()
	wg.Wait()
	close(stop)
	rg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	waitRetired(t, srv, clients*each)
	if got := srv.JobIDs(); len(got) != retain {
		t.Fatalf("job table = %v, want %d finished jobs", got, retain)
	}
	srv.mu.Lock()
	evicted := srv.evicted
	srv.mu.Unlock()
	if evicted != clients*each-retain {
		t.Fatalf("%d jobs evicted, want %d", evicted, clients*each-retain)
	}
	if n := len(jn.States()); n != retain {
		t.Fatalf("the journal keeps %d states, want %d", n, retain)
	}
}
