// Package journal is skelrund's write-ahead job journal: an append-only
// NDJSON log of job state transitions (submit/start/finish/cancel/fault)
// that the daemon writes before acting, plus a JSON snapshot the log
// periodically compacts into. On restart the daemon replays snapshot +
// journal and recovers every job the crash interrupted: jobs that were
// queued or running are re-queued (muscles are pure, so re-execution is
// safe), finished jobs keep serving their persisted result.
//
// Durability is tunable per deployment through the fsync policy: "always"
// syncs after every append (no record is ever lost, slowest), "interval"
// syncs on a timer (bounded loss window, the default), "never" leaves
// syncing to the OS (crash-of-process safe, crash-of-kernel lossy).
//
// The format is deliberately boring — one JSON object per line — so a torn
// final record (the process died mid-write) is detected by a failed parse
// and dropped, never poisoning the records before it.
package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Op labels one journal record's transition.
type Op string

// Record operations.
const (
	OpSubmit Op = "submit" // job accepted: Spec holds the full submission
	OpStart  Op = "start"  // job admitted by the arbiter, stream launched
	OpFinish Op = "finish" // job reached done/failed: result or error persisted
	OpCancel Op = "cancel" // job canceled by request or graceful shutdown
	OpFault  Op = "fault"  // fault counters advanced (crash-safe counters)
)

// Replayed job states (string-typed so the server maps them onto its own
// lifecycle without an import cycle).
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Spec is the durable form of one job submission, in the JSON units of the
// daemon's API (milliseconds) so journals stay readable with plain tools.
type Spec struct {
	Skeleton  string         `json:"skeleton"`
	Program   string         `json:"program,omitempty"`
	Params    map[string]any `json:"params,omitempty"`
	GoalMS    float64        `json:"goal_ms,omitempty"`
	MaxLP     int            `json:"max_lp,omitempty"`
	InitialLP int            `json:"initial_lp,omitempty"`
	// Policy names the job's adaptation rule. omitempty: journals written
	// before pluggable policies replay as the paper default, and journals
	// carrying it are ignored gracefully by older readers.
	Policy         string  `json:"policy,omitempty"`
	TimeoutMS      float64 `json:"timeout_ms,omitempty"`
	Retries        int     `json:"retries,omitempty"`
	RetryBackoffMS float64 `json:"retry_backoff_ms,omitempty"`
	Partial        string  `json:"partial,omitempty"`
	Substitute     any     `json:"substitute,omitempty"`
	// Tenant and Priority identify whose traffic the job is and how it
	// ranks on the admission ladder. Both are omitempty, so journals
	// written before multi-tenancy replay unchanged (empty tenant = the
	// default tenant, priority 0 = normal) and journals written with them
	// are ignored gracefully by older readers.
	Tenant   string `json:"tenant,omitempty"`
	Priority int    `json:"priority,omitempty"`
}

// FaultCounts carries a job's cumulative fault-tolerance counters. Fault
// records persist them mid-run so a crash does not zero the history.
type FaultCounts struct {
	Retries     uint64 `json:"retries,omitempty"`
	Faults      uint64 `json:"faults,omitempty"`
	Timeouts    uint64 `json:"timeouts,omitempty"`
	Skipped     uint64 `json:"skipped,omitempty"`
	Substituted uint64 `json:"substituted,omitempty"`
}

// Record is one NDJSON line of the journal.
type Record struct {
	Op     Op           `json:"op"`
	Job    string       `json:"job"`
	Seq    uint64       `json:"seq"`
	TS     int64        `json:"ts_ms,omitempty"` // wall clock, informational
	Spec   *Spec        `json:"spec,omitempty"`
	State  string       `json:"state,omitempty"`  // finish: done|failed
	Result string       `json:"result,omitempty"` // finish: summarized result
	Error  string       `json:"error,omitempty"`
	Faults *FaultCounts `json:"faults,omitempty"`
}

// JobState is one job's state reduced from snapshot + journal: what the
// daemon needs to either re-queue the job or serve its persisted outcome.
type JobState struct {
	ID          string      `json:"id"`
	Spec        Spec        `json:"spec"`
	State       string      `json:"state"`
	Result      string      `json:"result,omitempty"`
	Error       string      `json:"error,omitempty"`
	Faults      FaultCounts `json:"faults,omitempty"`
	SubmittedTS int64       `json:"submitted_ts_ms,omitempty"`
	FinishedTS  int64       `json:"finished_ts_ms,omitempty"`
}

// Terminal reports whether the replayed state is final — such jobs serve
// their persisted outcome instead of re-running.
func (s *JobState) Terminal() bool { return terminal(s.State) }

func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCanceled
}

// FsyncPolicy says when appended records reach the disk platter.
type FsyncPolicy string

// Fsync policies.
const (
	FsyncAlways   FsyncPolicy = "always"   // sync after every append
	FsyncInterval FsyncPolicy = "interval" // sync on a timer (default)
	FsyncNever    FsyncPolicy = "never"    // leave syncing to the OS
)

// ParseFsync validates a policy name from a flag.
func ParseFsync(s string) (FsyncPolicy, error) {
	switch FsyncPolicy(s) {
	case FsyncAlways, FsyncInterval, FsyncNever:
		return FsyncPolicy(s), nil
	case "":
		return FsyncInterval, nil
	default:
		return "", fmt.Errorf("journal: unknown fsync policy %q (want always, interval or never)", s)
	}
}

// Options tunes a Journal.
type Options struct {
	// Fsync is the durability policy (default FsyncInterval).
	Fsync FsyncPolicy
	// FsyncEvery is the interval policy's sync period (default 100ms).
	FsyncEvery time.Duration
	// RotateBytes compacts the journal into the snapshot once the live log
	// exceeds this size (default 1 MiB).
	RotateBytes int64
}

// Counters observes the journal's activity for /metrics.
type Counters struct {
	Appends     uint64 // records written
	Fsyncs      uint64 // explicit syncs issued
	Rotations   uint64 // size-triggered compactions
	Compactions uint64 // all compactions (rotations + the open-time one)
	Torn        uint64 // unparsable records dropped during replay
	Replayed    uint64 // records applied during replay
}

const (
	journalName  = "journal.ndjson"
	snapshotName = "snapshot.json"
)

// snapshotFile is the on-disk shape of the compacted state.
type snapshotFile struct {
	Seq  uint64  `json:"seq"`
	Last string  `json:"last,omitempty"`
	Jobs []entry `json:"jobs"`
}

// entry is one job's row of the state table: its JobState with the spec
// kept as the JSON a submit record carries it in, so a retained job keeps
// neither a Spec nor a map of its params. It encodes as its JobState does,
// field for field, and is what a compaction writes.
type entry struct {
	ID          string          `json:"id"`
	Spec        json.RawMessage `json:"spec"`
	State       string          `json:"state"`
	Result      string          `json:"result,omitempty"`
	Error       string          `json:"error,omitempty"`
	Faults      FaultCounts     `json:"faults,omitempty"`
	SubmittedTS int64           `json:"submitted_ts_ms,omitempty"`
	FinishedTS  int64           `json:"finished_ts_ms,omitempty"`
}

// line is the form a record is written in: the record, its spec already
// encoded. The spec goes last, after the state, result, error and faults
// that a submit record, the only one with a spec, leaves out: so a line
// reads byte for byte as its Record would.
type line struct {
	Record
	Spec json.RawMessage `json:"spec,omitempty"`
}

// Journal is the write-ahead log plus its reduced job-state table (kept
// in memory so compaction never has to re-read the log it is replacing).
// order lists ids in submission order; an id whose state Forget dropped
// stays in it until the next compaction trims it, and readers skip it.
// last is the id of the newest submission, kept through Forget and every
// compaction.
type Journal struct {
	dir string
	opt Options

	mu     sync.Mutex
	f      *os.File
	size   int64
	seq    uint64
	states map[string]*entry
	order  []string
	last   string
	ctr    Counters
	dirty  bool
	closed bool
	stop   chan struct{}
	wg     sync.WaitGroup
}

// ErrClosed rejects appends after Close.
var ErrClosed = fmt.Errorf("journal: closed")

// Open loads (snapshot + journal), compacts the result into a fresh
// snapshot — so startup cost stays proportional to the job table, not the
// log — and returns the journal ready for appends together with the
// replayed job states in submission order.
func Open(dir string, opt Options) (*Journal, []JobState, error) {
	if opt.Fsync == "" {
		opt.Fsync = FsyncInterval
	}
	if opt.FsyncEvery <= 0 {
		opt.FsyncEvery = 100 * time.Millisecond
	}
	if opt.RotateBytes <= 0 {
		opt.RotateBytes = 1 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{dir: dir, opt: opt, states: map[string]*entry{}, stop: make(chan struct{})}
	if err := j.loadSnapshot(); err != nil {
		return nil, nil, err
	}
	if err := j.replayLog(); err != nil {
		return nil, nil, err
	}
	if err := j.compactLocked(); err != nil { // also opens j.f fresh
		return nil, nil, err
	}
	if opt.Fsync == FsyncInterval {
		j.wg.Add(1)
		go j.fsyncLoop()
	}
	return j, j.States(), nil
}

// loadSnapshot reads the compacted state, tolerating a missing or corrupt
// snapshot (corrupt means a crash during compaction: the journal still has
// everything the snapshot would have had, minus what older compactions
// folded in — the torn counter records the loss).
func (j *Journal) loadSnapshot() error {
	data, err := os.ReadFile(filepath.Join(j.dir, snapshotName))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("journal: read snapshot: %w", err)
	}
	var snap snapshotFile
	if err := json.Unmarshal(data, &snap); err != nil {
		j.ctr.Torn++
		return nil
	}
	// Each spec is decoded, as a Spec, and kept encoded again: a spec that
	// does not decode tears the snapshot, and the table keeps compact JSON.
	for i := range snap.Jobs {
		var spec Spec
		if err := json.Unmarshal(snap.Jobs[i].Spec, &spec); err != nil {
			j.ctr.Torn++
			return nil
		}
		if snap.Jobs[i].Spec, err = json.Marshal(spec); err != nil {
			return fmt.Errorf("journal: snapshot spec: %w", err)
		}
	}
	j.seq, j.last = snap.Seq, snap.Last
	for _, st := range snap.Jobs {
		j.states[st.ID] = &st
		j.order = append(j.order, st.ID)
	}
	return nil
}

// replayLog applies the journal on top of the snapshot. Records that fail
// to parse — a torn final write, or garbage from a partial page flush — are
// dropped and counted, never aborting the replay.
func (j *Journal) replayLog() error {
	data, err := os.ReadFile(filepath.Join(j.dir, journalName))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("journal: read log: %w", err)
	}
	for len(data) > 0 {
		var line []byte
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			line, data = data, nil
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil || rec.Op == "" || rec.Job == "" {
			j.ctr.Torn++
			continue
		}
		if rec.Seq > j.seq {
			j.seq = rec.Seq
		}
		var spec []byte
		if rec.Spec != nil {
			if spec, err = json.Marshal(rec.Spec); err != nil {
				return fmt.Errorf("journal: replay spec: %w", err)
			}
		}
		if j.applyLocked(rec, spec) {
			j.ctr.Replayed++
		}
	}
	return nil
}

// applyLocked folds one record into the job-state table; spec is the
// record's spec encoded. It reports whether the record changed anything
// (duplicates — a finish replayed twice, a start for a terminal job — are
// no-ops, which is what makes replay idempotent and result records
// duplicate-proof).
func (j *Journal) applyLocked(rec Record, spec []byte) bool {
	st := j.states[rec.Job]
	switch rec.Op {
	case OpSubmit:
		if st != nil || rec.Spec == nil {
			return false
		}
		j.states[rec.Job] = &entry{
			ID: rec.Job, Spec: spec, State: StateQueued, SubmittedTS: rec.TS,
		}
		j.order = append(j.order, rec.Job)
		j.last = rec.Job
		return true
	case OpStart:
		if st == nil || terminal(st.State) {
			return false
		}
		st.State = StateRunning
		return true
	case OpFinish:
		if st == nil || terminal(st.State) || (rec.State != StateDone && rec.State != StateFailed) {
			return false
		}
		st.State, st.Result, st.Error, st.FinishedTS = rec.State, rec.Result, rec.Error, rec.TS
		if rec.Faults != nil {
			st.Faults = *rec.Faults
		}
		return true
	case OpCancel:
		if st == nil || terminal(st.State) {
			return false
		}
		st.State, st.Error, st.FinishedTS = StateCanceled, rec.Error, rec.TS
		return true
	case OpFault:
		if st == nil || terminal(st.State) || rec.Faults == nil {
			return false
		}
		st.Faults = *rec.Faults
		return true
	}
	return false
}

// append stamps, applies and persists one record.
func (j *Journal) append(rec Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	j.seq++
	rec.Seq = j.seq
	rec.TS = time.Now().UnixMilli()
	ln := line{Record: rec}
	if rec.Spec != nil {
		spec, err := json.Marshal(rec.Spec)
		if err != nil {
			return fmt.Errorf("journal: marshal: %w", err)
		}
		ln.Record.Spec, ln.Spec = nil, spec
	}
	j.applyLocked(rec, ln.Spec)
	b, err := json.Marshal(ln)
	if err != nil {
		return fmt.Errorf("journal: marshal: %w", err)
	}
	b = append(b, '\n')
	n, err := j.f.Write(b)
	j.size += int64(n)
	j.ctr.Appends++
	j.dirty = true
	if err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	if j.opt.Fsync == FsyncAlways {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("journal: fsync: %w", err)
		}
		j.ctr.Fsyncs++
		j.dirty = false
	}
	if j.size > j.opt.RotateBytes {
		j.ctr.Rotations++
		if err := j.compactLocked(); err != nil {
			return err
		}
	}
	return nil
}

// Submit journals a job acceptance.
func (j *Journal) Submit(id string, spec Spec) error {
	return j.append(Record{Op: OpSubmit, Job: id, Spec: &spec})
}

// Start journals a job's admission.
func (j *Journal) Start(id string) error {
	return j.append(Record{Op: OpStart, Job: id})
}

// Finish journals a terminal done/failed outcome with its fault counters.
func (j *Journal) Finish(id, state, result, errMsg string, fc FaultCounts) error {
	return j.append(Record{Op: OpFinish, Job: id, State: state, Result: result, Error: errMsg, Faults: &fc})
}

// Cancel journals a cancellation.
func (j *Journal) Cancel(id, errMsg string) error {
	return j.append(Record{Op: OpCancel, Job: id, Error: errMsg})
}

// Fault journals a job's cumulative fault counters mid-run.
func (j *Journal) Fault(id string, fc FaultCounts) error {
	return j.append(Record{Op: OpFault, Job: id, Faults: &fc})
}

// Forget drops a terminal job's state from the table, so the next
// compaction leaves it out of the snapshot and a replay no longer restores
// it. It writes no record: until that compaction the log still holds the
// job's records, and a replay of that log brings the job back. Forgetting
// an unknown or non-terminal job does nothing.
func (j *Journal) Forget(id string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if st := j.states[id]; st != nil && terminal(st.State) {
		delete(j.states, id)
	}
}

// LastSubmitted returns the id of the newest submission the journal has
// recorded, forgotten or not: a restart that numbers its jobs in sequence
// continues past it.
func (j *Journal) LastSubmitted() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.last
}

// compactLocked writes the reduced job table to the snapshot (atomically:
// tmp + fsync + rename) and truncates the journal. It also trims forgotten
// ids out of order, which therefore holds at most the table plus the jobs
// the live log has seen submitted. Caller holds j.mu (or is Open, before
// the journal is shared).
func (j *Journal) compactLocked() error {
	kept := j.order[:0]
	jobs := make([]entry, 0, len(j.states))
	for _, id := range j.order {
		if st := j.states[id]; st != nil {
			kept = append(kept, id)
			jobs = append(jobs, *st)
		}
	}
	clear(j.order[len(kept):])
	j.order = kept
	b, err := json.MarshalIndent(snapshotFile{Seq: j.seq, Last: j.last, Jobs: jobs}, "", " ")
	if err != nil {
		return fmt.Errorf("journal: snapshot marshal: %w", err)
	}
	tmp := filepath.Join(j.dir, snapshotName+".tmp")
	tf, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	if _, err := tf.Write(b); err != nil {
		tf.Close()
		return fmt.Errorf("journal: snapshot write: %w", err)
	}
	if err := tf.Sync(); err != nil {
		tf.Close()
		return fmt.Errorf("journal: snapshot sync: %w", err)
	}
	if err := tf.Close(); err != nil {
		return fmt.Errorf("journal: snapshot close: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(j.dir, snapshotName)); err != nil {
		return fmt.Errorf("journal: snapshot rename: %w", err)
	}
	if j.f != nil {
		j.f.Close()
	}
	f, err := os.OpenFile(filepath.Join(j.dir, journalName), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("journal: reopen log: %w", err)
	}
	j.f, j.size = f, 0
	j.syncDir()
	j.ctr.Compactions++
	return nil
}

// syncDir best-effort fsyncs the journal directory so renames survive a
// power cut (not all filesystems support directory sync; errors ignored).
func (j *Journal) syncDir() {
	if d, err := os.Open(j.dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}

// timerSync is what the interval policy's timer calls to sync the log file
// (a variable so a test can hold a sync up).
var timerSync = (*os.File).Sync

// fsyncLoop is the interval policy's timer. The sync itself runs outside
// j.mu: a disk that takes 100 ms over one fsync must not hold every Submit,
// Start and Finish of the daemon up for as long. What is appended while a
// sync is in flight marks the log dirty again and goes out with the next
// tick, so the loss window stays one period plus one sync. A rotation may close
// the file under the sync; os.File defers the close to the sync's return,
// and the snapshot the rotation wrote already covers those records.
func (j *Journal) fsyncLoop() {
	defer j.wg.Done()
	t := time.NewTicker(j.opt.FsyncEvery)
	defer t.Stop()
	for {
		select {
		case <-j.stop:
			return
		case <-t.C:
			j.mu.Lock()
			f, due := j.f, j.dirty && !j.closed
			if due {
				j.dirty = false
			}
			j.mu.Unlock()
			if !due {
				continue
			}
			err := timerSync(f)
			j.mu.Lock()
			if err == nil {
				j.ctr.Fsyncs++
			} else if j.f == f {
				j.dirty = true
			}
			j.mu.Unlock()
		}
	}
}

// Counters returns a copy of the activity counters.
func (j *Journal) Counters() Counters {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ctr
}

// States returns a copy of the replayed/current job states in submission
// order.
func (j *Journal) States() []JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]JobState, 0, len(j.states))
	for _, id := range j.order {
		if e := j.states[id]; e != nil {
			st := JobState{ID: e.ID, State: e.State, Result: e.Result, Error: e.Error,
				Faults: e.Faults, SubmittedTS: e.SubmittedTS, FinishedTS: e.FinishedTS}
			_ = json.Unmarshal(e.Spec, &st.Spec) // encoded from a Spec
			out = append(out, st)
		}
	}
	return out
}

// Close syncs and closes the journal; later appends return ErrClosed.
// Idempotent.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	close(j.stop)
	var err error
	if j.f != nil {
		if j.dirty {
			if serr := j.f.Sync(); serr == nil {
				j.ctr.Fsyncs++
			}
		}
		err = j.f.Close()
	}
	j.mu.Unlock()
	j.wg.Wait()
	return err
}
