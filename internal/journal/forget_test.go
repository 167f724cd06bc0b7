package journal

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// readSnapshot decodes the snapshot a compaction left in dir.
func readSnapshot(t *testing.T, dir string) snapshotFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if err != nil {
		t.Fatal(err)
	}
	var snap snapshotFile
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return snap
}

// TestForgetTerminalOnly: Forget drops a terminal job's state at once,
// writes no record, and leaves queued, running and unknown ids alone.
func TestForgetTerminalOnly(t *testing.T) {
	j, _ := openT(t, t.TempDir(), Options{Fsync: FsyncNever})
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(j.Submit("job-1", spec("sleepgrid")))
	must(j.Start("job-1"))
	must(j.Finish("job-1", StateDone, "16", "", FaultCounts{}))
	must(j.Submit("job-2", spec("sleepgrid")))
	must(j.Cancel("job-2", "canceled by request"))
	must(j.Submit("job-3", spec("sleepgrid")))
	must(j.Start("job-3"))
	must(j.Submit("job-4", spec("sleepgrid")))
	appends := j.Counters().Appends

	for _, id := range []string{"job-1", "job-2", "job-3", "job-4", "job-9"} {
		j.Forget(id)
	}
	if got := j.Counters().Appends; got != appends {
		t.Fatalf("Forget appended %d records, want none", got-appends)
	}
	var ids []string
	for _, st := range j.States() {
		ids = append(ids, st.ID)
	}
	if len(ids) != 2 || ids[0] != "job-3" || ids[1] != "job-4" {
		t.Fatalf("states after Forget = %v, want the running job-3 and the queued job-4", ids)
	}
	// A forgotten id takes no transition any more.
	must(j.Finish("job-1", StateFailed, "", "late", FaultCounts{}))
	if n := len(j.States()); n != 2 {
		t.Fatalf("a finish for a forgotten job brought it back: %d states", n)
	}
}

// TestForgetLeavesTheSnapshot: the compaction after a Forget writes a
// snapshot without the job and trims it from the submission order, so a
// reopen replays only what is kept. Until that compaction the log still
// holds the job's records, and a reopen brings it back.
func TestForgetLeavesTheSnapshot(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{Fsync: FsyncNever, RotateBytes: 1 << 20})
	for i := 0; i < 20; i++ {
		id := jobID(i)
		if err := j.Submit(id, spec("sleepgrid")); err != nil {
			t.Fatal(err)
		}
		if err := j.Finish(id, StateDone, "1", "", FaultCounts{}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 15; i++ {
		j.Forget(jobID(i))
	}
	j.Close()

	// No compaction ran: the log brings the forgotten jobs back.
	j2, states := openT(t, dir, Options{Fsync: FsyncNever, RotateBytes: 1})
	if len(states) != 20 {
		t.Fatalf("reopen before any compaction replayed %d states, want all 20", len(states))
	}
	for i := 0; i < 15; i++ {
		j2.Forget(jobID(i))
	}
	// Every append now rotates: the snapshot it writes keeps 5 + 1 jobs.
	if err := j2.Submit("job-zz", spec("sleepgrid")); err != nil {
		t.Fatal(err)
	}
	snap := readSnapshot(t, dir)
	if len(snap.Jobs) != 6 {
		t.Fatalf("snapshot after Forget holds %d jobs, want 6", len(snap.Jobs))
	}
	for k, st := range snap.Jobs {
		if want := jobID(15 + k); k < 5 && st.ID != want {
			t.Fatalf("snapshot job %d = %s, want %s", k, st.ID, want)
		}
	}
	if len(j2.order) != 6 {
		t.Fatalf("order holds %d ids after the compaction, want 6", len(j2.order))
	}
	j2.Close()

	_, states = openT(t, dir, Options{})
	if len(states) != 6 || states[0].ID != jobID(15) || states[5].ID != "job-zz" {
		t.Fatalf("reopen after the compaction replayed %d states, want 6 from %s", len(states), jobID(15))
	}
}

// TestForgetKeepsLastSubmitted: the newest submission outlives Forget, the
// compaction after it and a reopen, so a restart can number past a job the
// snapshot no longer holds.
func TestForgetKeepsLastSubmitted(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{Fsync: FsyncNever, RotateBytes: 1})
	for _, id := range []string{"job-1", "job-2", "job-3"} {
		if err := j.Submit(id, spec("sleepgrid")); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Finish("job-3", StateDone, "1", "", FaultCounts{}); err != nil {
		t.Fatal(err)
	}
	j.Forget("job-3")
	// Every append rotates: this one writes a snapshot without job-3.
	if err := j.Cancel("job-1", "canceled by request"); err != nil {
		t.Fatal(err)
	}
	if snap := readSnapshot(t, dir); len(snap.Jobs) != 2 || snap.Last != "job-3" {
		t.Fatalf("snapshot holds %d jobs, last %q; want 2 and job-3", len(snap.Jobs), snap.Last)
	}
	j.Close()

	j2, states := openT(t, dir, Options{Fsync: FsyncNever})
	if len(states) != 2 {
		t.Fatalf("reopen replayed %d states, want 2", len(states))
	}
	if got := j2.LastSubmitted(); got != "job-3" {
		t.Fatalf("LastSubmitted after the reopen = %q, want job-3", got)
	}
	if err := j2.Submit("job-4", spec("sleepgrid")); err != nil {
		t.Fatal(err)
	}
	if got := j2.LastSubmitted(); got != "job-4" {
		t.Fatalf("LastSubmitted after a submission = %q, want job-4", got)
	}
}
