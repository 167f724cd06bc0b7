package server

import (
	"context"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"skandium/internal/journal"
)

// openJournal opens a test journal with always-sync durability, so every
// record is on disk the moment the call returns — the strictest crash model.
func openJournal(t *testing.T, dir string) (*journal.Journal, []journal.JobState) {
	t.Helper()
	jn, states, err := journal.Open(dir, journal.Options{Fsync: journal.FsyncAlways})
	if err != nil {
		t.Fatalf("open journal %s: %v", dir, err)
	}
	return jn, states
}

// sleepSpec is a journal-form sleepgrid submission (4×4 grid).
func sleepSpec(cellMS float64) journal.Spec {
	return journal.Spec{
		Skeleton: "sleepgrid",
		Params:   map[string]any{"k": 4, "m": 4, "cell_ms": cellMS},
	}
}

// waitState polls a job until it reaches want or the deadline expires.
func waitState(t *testing.T, base, id, want string, timeout time.Duration) jobView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		v := getJSON[jobView](t, base+"/jobs/"+id)
		if v.State == want {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s state = %s (err %q), want %s", id, v.State, v.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRecoveryRoundTrip crash-simulates in process: a journal is populated
// exactly as a daemon would have (one finished job, one mid-run with fault
// counters, one still queued), reopened, and a fresh server recovers from
// it — the finished job serves its persisted result without re-running,
// the interrupted jobs re-run to completion, fault counters carry over,
// and the journal ends with exactly one terminal record per job.
func TestRecoveryRoundTrip(t *testing.T) {
	dir := t.TempDir()

	jn1, _ := openJournal(t, dir)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("journal write: %v", err)
		}
	}
	must(jn1.Submit("job-1", sleepSpec(5)))
	must(jn1.Start("job-1"))
	must(jn1.Finish("job-1", journal.StateDone, "16", "", journal.FaultCounts{}))
	must(jn1.Submit("job-2", sleepSpec(5)))
	must(jn1.Start("job-2"))
	must(jn1.Fault("job-2", journal.FaultCounts{Retries: 3, Faults: 1}))
	must(jn1.Submit("job-3", sleepSpec(5)))
	// A crash writes no close record — every byte above is already synced,
	// so closing here only releases the file handles for the reopen.
	_ = jn1.Close()

	jn2, states := openJournal(t, dir)
	if len(states) != 3 {
		t.Fatalf("replayed %d jobs, want 3: %+v", len(states), states)
	}
	srv, ts := newTestDaemon(t, Config{
		Budget: 2, Rebalance: 5 * time.Millisecond,
		Journal: jn2, Recover: states,
	})
	base := ts.URL

	if n := srv.RecoveredJobs(); n != 3 {
		t.Fatalf("RecoveredJobs = %d, want 3", n)
	}

	// The finished job was rehydrated: persisted result, no re-execution.
	done := getJSON[jobView](t, base+"/jobs/job-1")
	if done.State != "done" || done.Result != "16" || !done.Recovered {
		t.Fatalf("restored job-1 = %+v, want done/16/recovered", done)
	}
	if done.StartedMS != 0 {
		t.Fatalf("restored job-1 started_ms = %v, want 0 (never re-ran)", done.StartedMS)
	}

	// The interrupted jobs re-ran from scratch (muscles are pure) and
	// produced the same result a crash-free run would have.
	rerun := waitState(t, base, "job-2", "done", 20*time.Second)
	if rerun.Result != "16" || !rerun.Recovered {
		t.Fatalf("re-run job-2 = %+v, want result 16 and recovered", rerun)
	}
	if rerun.Retries < 3 || rerun.Faults < 1 {
		t.Fatalf("job-2 fault counters = %d/%d, want journaled 3/1 preserved", rerun.Retries, rerun.Faults)
	}
	// The fleet-wide fault totals count the journaled history too.
	assertFleetSumsJobs(t, base, "retries_total", "faults_total")
	queued := waitState(t, base, "job-3", "done", 20*time.Second)
	if queued.Result != "16" || !queued.Recovered {
		t.Fatalf("re-queued job-3 = %+v, want result 16 and recovered", queued)
	}

	// Job numbering continues after the recovered ids.
	fresh := submitSleepgrid(t, base, 0, 5)
	if fresh.ID != "job-4" {
		t.Fatalf("fresh submission id = %s, want job-4", fresh.ID)
	}
	waitState(t, base, fresh.ID, "done", 20*time.Second)

	// Exactly one terminal record per job: the journal's state table shows
	// every job done with its single result, and job-1's original result
	// untouched (its rehydration journaled nothing).
	byID := map[string]journal.JobState{}
	for _, st := range jn2.States() {
		byID[st.ID] = st
	}
	for _, id := range []string{"job-1", "job-2", "job-3", "job-4"} {
		st, ok := byID[id]
		if !ok || st.State != journal.StateDone || st.Result != "16" {
			t.Fatalf("journal state for %s = %+v, want done/16", id, st)
		}
	}
	if fc := byID["job-2"].Faults; fc.Retries < 3 || fc.Faults < 1 {
		t.Fatalf("journaled job-2 faults = %+v, want >= 3/1", fc)
	}
}

// TestJournalThreeFsyncsPerJob: on an always-sync journal a job costs
// exactly three appends (submit, start, finish) and one fsync each — the
// journal.fsyncs_per_job == 3 the benchmark's durable_tiny workload is
// sized on. Drain returns once every job is finished and journaled, so the
// counters are exact the moment it does.
func TestJournalThreeFsyncsPerJob(t *testing.T) {
	const jobs = 25
	jn, _ := openJournal(t, t.TempDir())
	defer jn.Close()
	srv, _ := newTestDaemon(t, Config{Budget: 4, Journal: jn})
	for i := 0; i < jobs; i++ {
		if _, err := srv.Submit(SubmitSpec{Skeleton: "sleepgrid",
			Params: map[string]any{"k": 1, "m": 1, "cell_ms": 0.05}}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	c := jn.Counters()
	if c.Appends != 3*jobs || c.Fsyncs != 3*jobs {
		t.Fatalf("%d jobs: %d appends and %d fsyncs, want %d of each", jobs, c.Appends, c.Fsyncs, 3*jobs)
	}
	for _, st := range jn.States() {
		if st.State != journal.StateDone {
			t.Fatalf("%s journaled as %s, want done", st.ID, st.State)
		}
	}
}

// TestRecoveringHealth: while journal-recovered jobs still wait for budget
// the daemon reports "recovering", and returns to "ok" once they drain.
func TestRecoveringHealth(t *testing.T) {
	dir := t.TempDir()
	jn1, _ := openJournal(t, dir)
	_ = jn1.Submit("job-1", sleepSpec(20))
	_ = jn1.Submit("job-2", sleepSpec(20))
	_ = jn1.Close()

	jn2, states := openJournal(t, dir)
	srv, ts := newTestDaemon(t, Config{
		Budget: 1, Rebalance: 5 * time.Millisecond,
		Journal: jn2, Recover: states,
	})
	if h := srv.Health(); h != HealthRecovering {
		t.Fatalf("health during recovery = %s, want %s", h, HealthRecovering)
	}
	waitState(t, ts.URL, "job-2", "done", 20*time.Second)
	if h := srv.Health(); h != HealthOK {
		t.Fatalf("health after recovery = %s, want %s", h, HealthOK)
	}
}

// TestCloseDuringRecovery is the regression for a shutdown racing a journal
// replay: Close while recovered jobs are mid-flight (one stream running,
// several queued) must cancel everything and return — not deadlock against
// the arbiter.
func TestCloseDuringRecovery(t *testing.T) {
	dir := t.TempDir()
	jn1, _ := openJournal(t, dir)
	for _, id := range []string{"job-1", "job-2", "job-3", "job-4"} {
		_ = jn1.Submit(id, sleepSpec(200))
	}
	_ = jn1.Start("job-1")
	_ = jn1.Close()

	jn2, states := openJournal(t, dir)
	defer jn2.Close()
	srv := New(Config{
		Budget: 1, Rebalance: time.Millisecond,
		Journal: jn2, Recover: states,
	})

	done := make(chan struct{})
	go func() {
		srv.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("Close deadlocked during recovery replay")
	}
	// Close cancels the running stream; its watch goroutine records the
	// terminal state moments later.
	deadline := time.Now().Add(10 * time.Second)
	for {
		live := 0
		for _, id := range srv.JobIDs() {
			j, _ := srv.Job(id)
			st, _, _, _, _, _, _ := j.snapshot()
			if !st.terminal() {
				live++
			}
		}
		if live == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d jobs still non-terminal after Close", live)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCrashRecoverySIGKILL is the acceptance scenario end-to-end: a real
// daemon subprocess with one running and one queued job is SIGKILLed
// mid-execution, and a successor using only the same journal directory
// recovers both to completion.
func TestCrashRecoverySIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dir := t.TempDir()
	jdir := filepath.Join(dir, "journal")
	addrFile := filepath.Join(dir, "addr")

	cmd := exec.Command(os.Args[0], "-test.run", "^TestCrashDaemonHelper$", "-test.v")
	cmd.Env = append(os.Environ(),
		"SKELRUND_CRASH_HELPER=1",
		"SKELRUND_JOURNAL_DIR="+jdir,
		"SKELRUND_ADDR_FILE="+addrFile,
	)
	if err := cmd.Start(); err != nil {
		t.Fatalf("start helper: %v", err)
	}
	killed := false
	defer func() {
		if !killed {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		}
	}()

	var base string
	deadline := time.Now().Add(15 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			base = "http://" + strings.TrimSpace(string(b))
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("helper daemon never published its address")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Budget 1 in the helper: the first job runs (16 × 300ms serial — far
	// outlives this test's interaction), the second queues behind it.
	a := submitSleepgrid(t, base, 0, 300)
	b := submitSleepgrid(t, base, 0, 300)
	if a.State != "running" || b.State != "queued" {
		t.Fatalf("pre-crash states = %s/%s, want running/queued", a.State, b.State)
	}

	// SIGKILL: no drain, no journal close — recovery must work from the
	// fsynced bytes alone.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatalf("kill helper: %v", err)
	}
	_ = cmd.Wait()
	killed = true

	jn, states := openJournal(t, jdir)
	if len(states) != 2 {
		t.Fatalf("replayed %d jobs, want 2", len(states))
	}
	byID := map[string]journal.JobState{}
	for _, st := range states {
		byID[st.ID] = st
	}
	if st := byID[a.ID].State; st != journal.StateRunning {
		t.Fatalf("journaled state of %s = %s, want running", a.ID, st)
	}
	if st := byID[b.ID].State; st != journal.StateQueued {
		t.Fatalf("journaled state of %s = %s, want queued", b.ID, st)
	}

	srv, ts := newTestDaemon(t, Config{
		Budget: 2, Rebalance: 5 * time.Millisecond,
		Journal: jn, Recover: states,
	})
	if n := srv.RecoveredJobs(); n != 2 {
		t.Fatalf("RecoveredJobs = %d, want 2", n)
	}
	for _, id := range []string{a.ID, b.ID} {
		v := waitState(t, ts.URL, id, "done", 3*time.Minute)
		if v.Result != "16" || !v.Recovered {
			t.Fatalf("recovered %s = result %q recovered %v, want 16/true", id, v.Result, v.Recovered)
		}
	}
	// One terminal record per job, despite the re-run.
	for _, st := range jn.States() {
		if st.State != journal.StateDone || st.Result != "16" {
			t.Fatalf("journal state %+v, want done/16", st)
		}
	}
}

// TestCrashDaemonHelper is the subprocess body of TestCrashRecoverySIGKILL:
// a budget-1 daemon on a loopback port with an always-sync journal, running
// until the parent kills it. Guarded by an env var so a normal test run
// skips it.
func TestCrashDaemonHelper(t *testing.T) {
	if os.Getenv("SKELRUND_CRASH_HELPER") != "1" {
		t.Skip("subprocess helper for TestCrashRecoverySIGKILL")
	}
	jn, states, err := journal.Open(os.Getenv("SKELRUND_JOURNAL_DIR"),
		journal.Options{Fsync: journal.FsyncAlways})
	if err != nil {
		t.Fatalf("helper: open journal: %v", err)
	}
	srv := New(Config{
		Budget: 1, Rebalance: 5 * time.Millisecond,
		Journal: jn, Recover: states,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("helper: listen: %v", err)
	}
	if err := os.WriteFile(os.Getenv("SKELRUND_ADDR_FILE"),
		[]byte(ln.Addr().String()), 0o644); err != nil {
		t.Fatalf("helper: write addr: %v", err)
	}
	// Serve until SIGKILL; there is deliberately no shutdown path.
	_ = http.Serve(ln, srv.Handler())
}
