package journal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func openT(t *testing.T, dir string, opt Options) (*Journal, []JobState) {
	t.Helper()
	j, states, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { j.Close() })
	return j, states
}

func spec(skel string) Spec {
	return Spec{Skeleton: skel, Params: map[string]any{"k": 2.0}, GoalMS: 100, InitialLP: 1}
}

// TestRoundTrip: submit/start/finish/cancel survive a close + reopen with
// the exact states, results and fault counters that were journaled.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, states := openT(t, dir, Options{Fsync: FsyncAlways})
	if len(states) != 0 {
		t.Fatalf("fresh journal has %d states", len(states))
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(j.Submit("job-1", spec("sleepgrid")))
	must(j.Start("job-1"))
	must(j.Finish("job-1", StateDone, "16", "", FaultCounts{Retries: 3}))
	must(j.Submit("job-2", spec("wordcount")))
	must(j.Start("job-2"))
	must(j.Submit("job-3", spec("mergesort")))
	must(j.Cancel("job-3", "canceled by request"))
	must(j.Submit("job-4", spec("montecarlo")))
	must(j.Close())

	_, states = openT(t, dir, Options{})
	if len(states) != 4 {
		t.Fatalf("replayed %d states, want 4", len(states))
	}
	byID := map[string]JobState{}
	for _, s := range states {
		byID[s.ID] = s
	}
	if s := byID["job-1"]; s.State != StateDone || s.Result != "16" || s.Faults.Retries != 3 {
		t.Fatalf("job-1 replayed wrong: %+v", s)
	}
	if s := byID["job-2"]; s.State != StateRunning || s.Spec.Skeleton != "wordcount" {
		t.Fatalf("job-2 replayed wrong: %+v", s)
	}
	if s := byID["job-3"]; s.State != StateCanceled || s.Error != "canceled by request" {
		t.Fatalf("job-3 replayed wrong: %+v", s)
	}
	if s := byID["job-4"]; s.State != StateQueued {
		t.Fatalf("job-4 replayed wrong: %+v", s)
	}
	// Submission order is preserved across replay.
	for i, want := range []string{"job-1", "job-2", "job-3", "job-4"} {
		if states[i].ID != want {
			t.Fatalf("order[%d] = %s, want %s", i, states[i].ID, want)
		}
	}
}

// TestDuplicateFinishIgnored: a finish replayed after a terminal state (a
// crash between append and ack, then a retried append) must not change the
// persisted outcome — no duplicate result records.
func TestDuplicateFinishIgnored(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{Fsync: FsyncAlways})
	if err := j.Submit("job-1", spec("sleepgrid")); err != nil {
		t.Fatal(err)
	}
	if err := j.Finish("job-1", StateDone, "first", "", FaultCounts{}); err != nil {
		t.Fatal(err)
	}
	if err := j.Finish("job-1", StateFailed, "second", "boom", FaultCounts{}); err != nil {
		t.Fatal(err)
	}
	if err := j.Cancel("job-1", "late cancel"); err != nil {
		t.Fatal(err)
	}
	j.Close()

	_, states := openT(t, dir, Options{})
	if len(states) != 1 || states[0].State != StateDone || states[0].Result != "first" {
		t.Fatalf("duplicate finish changed the outcome: %+v", states)
	}
}

// TestTornFinalRecord: a crash mid-append leaves a half-written last line;
// replay must drop exactly that record and keep everything before it.
func TestTornFinalRecord(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{Fsync: FsyncAlways})
	if err := j.Submit("job-1", spec("sleepgrid")); err != nil {
		t.Fatal(err)
	}
	if err := j.Start("job-1"); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Simulate the torn write: append half a finish record, no newline.
	path := filepath.Join(dir, journalName)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"finish","job":"job-1","state":"done","resu`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, states := openT(t, dir, Options{})
	if len(states) != 1 || states[0].State != StateRunning {
		t.Fatalf("torn record corrupted replay: %+v", states)
	}
	if c := j2.Counters(); c.Torn != 1 {
		t.Fatalf("torn counter = %d, want 1", c.Torn)
	}
}

// TestTruncationSweep cuts a valid journal at every byte offset inside its
// final record: each prefix must open cleanly and recover every record
// before the cut.
func TestTruncationSweep(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{Fsync: FsyncAlways})
	if err := j.Submit("job-1", spec("sleepgrid")); err != nil {
		t.Fatal(err)
	}
	if err := j.Start("job-1"); err != nil {
		t.Fatal(err)
	}
	if err := j.Finish("job-1", StateDone, "42", "", FaultCounts{Faults: 1}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	data, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimRight(string(data), "\n"), "\n")
	prefix := strings.Join(lines[:len(lines)-1], "")
	last := lines[len(lines)-1]

	for cut := 0; cut < len(last); cut++ {
		sub := t.TempDir()
		if err := os.WriteFile(filepath.Join(sub, journalName), []byte(prefix+last[:cut]), 0o644); err != nil {
			t.Fatal(err)
		}
		j2, states, err := Open(sub, Options{})
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		if len(states) != 1 {
			t.Fatalf("cut %d: %d states, want 1", cut, len(states))
		}
		// The finish is the torn record: replay must land on the pre-finish
		// state (running), never a half-parsed terminal state.
		if got := states[0].State; got != StateRunning {
			t.Fatalf("cut %d: state %q, want running", cut, got)
		}
		j2.Close()
	}
}

// TestCompaction: exceeding RotateBytes folds the log into the snapshot and
// truncates the journal; nothing is lost across the rotation or a reopen.
func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{Fsync: FsyncNever, RotateBytes: 512})
	for i := 0; i < 50; i++ {
		id := jobID(i)
		if err := j.Submit(id, spec("sleepgrid")); err != nil {
			t.Fatal(err)
		}
		if err := j.Finish(id, StateDone, "1", "", FaultCounts{}); err != nil {
			t.Fatal(err)
		}
	}
	c := j.Counters()
	if c.Rotations == 0 {
		t.Fatalf("no rotation after 100 appends over a 512-byte cap: %+v", c)
	}
	if fi, err := os.Stat(filepath.Join(dir, journalName)); err != nil || fi.Size() > 512 {
		t.Fatalf("journal not truncated by rotation: %v %d", err, fi.Size())
	}
	j.Close()

	j2, states := openT(t, dir, Options{})
	if len(states) != 50 {
		t.Fatalf("replayed %d states after compaction, want 50", len(states))
	}
	for _, s := range states {
		if s.State != StateDone {
			t.Fatalf("%s replayed as %s, want done", s.ID, s.State)
		}
	}
	// Open itself compacts, so a second reopen replays nothing from the log:
	// every outcome is served from the snapshot alone.
	j2.Close()
	j3, states3 := openT(t, dir, Options{})
	if len(states3) != 50 {
		t.Fatalf("second reopen: %d states, want 50", len(states3))
	}
	if c := j3.Counters(); c.Replayed != 0 {
		t.Fatalf("post-compaction reopen replayed %d journal records, want 0", c.Replayed)
	}
}

// TestFaultCountersSurviveCrash: mid-run fault records keep counters across
// a crash (no finish record ever written).
func TestFaultCountersSurviveCrash(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{Fsync: FsyncAlways})
	if err := j.Submit("job-1", spec("chaosgrid")); err != nil {
		t.Fatal(err)
	}
	if err := j.Start("job-1"); err != nil {
		t.Fatal(err)
	}
	if err := j.Fault("job-1", FaultCounts{Retries: 2}); err != nil {
		t.Fatal(err)
	}
	if err := j.Fault("job-1", FaultCounts{Retries: 5, Faults: 1}); err != nil {
		t.Fatal(err)
	}
	// No Close: simulate the crash by reopening the same directory.
	_, states, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 1 || states[0].State != StateRunning {
		t.Fatalf("replay: %+v", states)
	}
	if fc := states[0].Faults; fc.Retries != 5 || fc.Faults != 1 {
		t.Fatalf("fault counters lost: %+v", fc)
	}
}

// TestSnapshotAtomicity: a corrupt snapshot (crash during compaction before
// the rename... or disk garbage) must not abort Open.
func TestCorruptSnapshotTolerated(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapshotName), []byte("{half a snapsho"), 0o644); err != nil {
		t.Fatal(err)
	}
	j, states := openT(t, dir, Options{})
	if len(states) != 0 {
		t.Fatalf("states from corrupt snapshot: %+v", states)
	}
	if c := j.Counters(); c.Torn != 1 {
		t.Fatalf("torn counter = %d, want 1", c.Torn)
	}
}

// TestAppendAfterClose: the daemon's shutdown path may race a last watch
// goroutine; late appends must fail cleanly, not crash.
func TestAppendAfterClose(t *testing.T) {
	j, _ := openT(t, t.TempDir(), Options{})
	j.Close()
	if err := j.Submit("job-1", spec("x")); err != ErrClosed {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestIntervalFsync: the timer policy syncs dirty appends without being
// asked.
func TestIntervalFsync(t *testing.T) {
	j, _ := openT(t, t.TempDir(), Options{Fsync: FsyncInterval, FsyncEvery: 5 * time.Millisecond})
	if err := j.Submit("job-1", spec("x")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if j.Counters().Fsyncs > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("no interval fsync within 2s: %+v", j.Counters())
}

// TestIntervalFsyncOutsideLock: a timer sync that the disk holds up blocks
// neither appends nor a rotation, and what was appended meanwhile is synced
// by a later tick.
func TestIntervalFsyncOutsideLock(t *testing.T) {
	for _, tc := range []struct {
		name        string
		rotateBytes int64
		wantFsyncs  uint64 // the held-up sync, unless a rotation closed its file, and a later one
	}{{"append", 0, 2}, {"rotate", 2048, 1}} {
		t.Run(tc.name, func(t *testing.T) {
			entered, release := make(chan struct{}, 1), make(chan struct{})
			timerSync = func(f *os.File) error {
				select {
				case entered <- struct{}{}:
					<-release // the first sync hangs until the test lets it go
				default:
				}
				return f.Sync()
			}
			defer func() { timerSync = (*os.File).Sync }()

			j, _ := openT(t, t.TempDir(), Options{Fsync: FsyncInterval, FsyncEvery: 5 * time.Millisecond, RotateBytes: tc.rotateBytes})
			if err := j.Submit("job-0", spec("x")); err != nil {
				t.Fatal(err)
			}
			<-entered
			done := make(chan error, 1)
			go func() {
				var err error
				for i := 1; i <= 40 && err == nil; i++ {
					err = j.Submit(fmt.Sprintf("job-%d", i), spec("x"))
				}
				done <- err
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("appends wait for the timer's fsync")
			}
			if c := j.Counters(); c.Fsyncs != 0 || (c.Rotations > 0) != (tc.rotateBytes > 0) {
				t.Fatalf("no sync can have finished yet, rotations only when asked for: %+v", c)
			}
			close(release)
			deadline := time.Now().Add(2 * time.Second)
			for j.Counters().Fsyncs < tc.wantFsyncs {
				if time.Now().After(deadline) {
					t.Fatalf("records appended during a sync were not synced by a later tick: %+v", j.Counters())
				}
				time.Sleep(5 * time.Millisecond)
			}
			if got := len(j.States()); got != 41 {
				t.Fatalf("%d jobs in the table, want 41", got)
			}
		})
	}
}

// TestParseFsync covers the flag parser.
func TestParseFsync(t *testing.T) {
	for _, ok := range []string{"always", "interval", "never", ""} {
		if _, err := ParseFsync(ok); err != nil {
			t.Fatalf("ParseFsync(%q): %v", ok, err)
		}
	}
	if _, err := ParseFsync("sometimes"); err == nil {
		t.Fatal("ParseFsync accepted garbage")
	}
}

// TestRecordShape pins the NDJSON wire format: one object per line with the
// op/job/seq envelope (external followers depend on it).
func TestRecordShape(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{Fsync: FsyncAlways, RotateBytes: 1 << 30})
	if err := j.Submit("job-1", spec("sleepgrid")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	var rec map[string]any
	line := strings.TrimSpace(string(data))
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("journal line is not one JSON object: %q", line)
	}
	if rec["op"] != "submit" || rec["job"] != "job-1" || rec["seq"] != float64(1) {
		t.Fatalf("envelope wrong: %v", rec)
	}
}

func jobID(i int) string {
	return "job-" + string(rune('a'+i/26)) + string(rune('a'+i%26))
}
