package remote

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"skandium"
	"skandium/internal/clock"
	"skandium/internal/core"
	"skandium/internal/exec"
	"skandium/internal/plan"
)

// WorkerConfig tunes a Worker.
type WorkerConfig struct {
	// LP is the pool's initial level of parallelism (default 1); the
	// coordinator's arbiter grants adjust it over /lp.
	LP int
	// MaxLP caps the pool (0 = uncapped): the hard thread budget of the
	// machine the worker runs on, reported to the arbiter as the node cap.
	MaxLP int
	// MaxFrame bounds one NDJSON task line (default DefaultMaxFrame).
	MaxFrame int
	// MaxQueue bounds the task queue (0 = unbounded): a batch that would
	// push the queued-task count past it is shed with HTTP 429 and a
	// Retry-After hint instead of buffering without bound — the worker's
	// mirror of skelrund's -queue-max admission control.
	MaxQueue int
	// Clock substitutes the time source (tests).
	Clock clock.Clock
}

// Worker is one remote execution node: it holds a task pool, at most one
// loaded program, and serves the wire protocol. The interpretation path is
// the ordinary local one — exec.Root walking the compiled IR — so a worker
// executes tasks bit-for-bit like a local pool would.
//
// Execution is idempotent per job epoch: each (job, seq) runs its muscle at
// most once, however many times the coordinator retries the batch after an
// ambiguous failure (lost reply, torn response, timeout). Replays of a
// completed task are served from the slot cache; replays of an in-flight
// task wait on the original future.
type Worker struct {
	clk      clock.Clock
	pool     *exec.Pool
	maxFrame int
	maxQueue int
	tasks    atomic.Int64
	deduped  atomic.Int64
	shed     atomic.Int64

	mu        sync.Mutex
	blueprint string
	codec     *skandium.RemoteCodec
	body      *plan.Program
	job       string
	slots     map[int]*taskSlot
}

// taskSlot is the idempotency record of one (job, seq): the once gate
// guarantees the muscle starts at most once, and every request for the seq
// — original or replay — waits on the same future.
type taskSlot struct {
	once    sync.Once
	fut     *exec.Future
	err     error // part decode failure (deterministic, cached like a result)
	counted atomic.Bool
}

// run starts the slot's execution exactly once. sync.Once publishes fut/err
// to every concurrent caller.
func (s *taskSlot) run(w *Worker, codec *skandium.RemoteCodec, body *plan.Program, part json.RawMessage) {
	s.once.Do(func() {
		p, err := codec.DecodePart(part)
		if err != nil {
			s.err = fmt.Errorf("decode part: %w", err)
			return
		}
		s.fut = exec.NewRoot(w.pool, nil, w.clk).StartProgram(body, p)
	})
}

// get waits for the slot's outcome.
func (s *taskSlot) get() (any, error) {
	if s.err != nil {
		return nil, s.err
	}
	return s.fut.Get()
}

// NewWorker builds a worker node.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.LP < 1 {
		cfg.LP = 1
	}
	if cfg.MaxFrame <= 0 {
		cfg.MaxFrame = DefaultMaxFrame
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.System
	}
	return &Worker{
		clk:      cfg.Clock,
		pool:     exec.NewPool(cfg.Clock, cfg.LP, cfg.MaxLP),
		maxFrame: cfg.MaxFrame,
		maxQueue: cfg.MaxQueue,
		slots:    map[int]*taskSlot{},
	}
}

// Close shuts the worker's pool down.
func (w *Worker) Close() { w.pool.Close() }

// Report snapshots the node state the health probe exposes.
func (w *Worker) Report() core.NodeReport {
	return core.NodeReport{
		LP:     w.pool.LP(),
		Active: w.pool.Active(),
		Queued: w.pool.QueueLen(),
		MaxLP:  w.pool.MaxLP(),
	}
}

// Deduped counts task requests served from the idempotency cache.
func (w *Worker) Deduped() int64 { return w.deduped.Load() }

// Shed counts batches refused with 429 under admission control.
func (w *Worker) Shed() int64 { return w.shed.Load() }

// Handler serves the worker wire protocol.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", w.handleHealth)
	mux.HandleFunc("POST /program", w.handleProgram)
	mux.HandleFunc("POST /tasks", w.handleTasks)
	mux.HandleFunc("POST /lp", w.handleLP)
	return mux
}

func (w *Worker) handleHealth(rw http.ResponseWriter, r *http.Request) {
	w.mu.Lock()
	bp := w.blueprint
	w.mu.Unlock()
	rep := w.Report()
	writeJSON(rw, http.StatusOK, HealthResponse{
		OK: true, Blueprint: bp,
		LP: rep.LP, Active: rep.Active, Queued: rep.Queued, MaxLP: rep.MaxLP,
		Tasks: w.tasks.Load(), Deduped: w.deduped.Load(), Shed: w.shed.Load(),
	})
}

func (w *Worker) handleProgram(rw http.ResponseWriter, r *http.Request) {
	var req ProgramRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(rw, http.StatusBadRequest, ProgramResponse{Error: "malformed program request: " + err.Error()})
		return
	}
	rendered, err := w.load(req)
	if err != nil {
		writeJSON(rw, http.StatusUnprocessableEntity, ProgramResponse{Error: err.Error()})
		return
	}
	writeJSON(rw, http.StatusOK, ProgramResponse{OK: true, Program: rendered})
}

// load resolves the blueprint by registry name, rebuilds the skeleton,
// compiles it and pins the fan-out body as the task entry point. Unknown
// names and ineligible blueprints are clean errors — the coordinator sees
// them as a refusal, never as a worker crash. A new job epoch resets the
// dedup slots; re-loading the current epoch (a node rejoining mid-job)
// keeps them, so post-rejoin replays still dedup.
func (w *Worker) load(req ProgramRequest) (string, error) {
	bp, ok := skandium.LookupBlueprint(req.Blueprint)
	if !ok {
		return "", fmt.Errorf("unknown blueprint %q: not in this worker's registry", req.Blueprint)
	}
	if bp.Remote == nil {
		return "", fmt.Errorf("blueprint %q is not cluster-eligible: no remote codec", req.Blueprint)
	}
	runner, err := bp.Build(skandium.Params(req.Params))
	if err != nil {
		return "", fmt.Errorf("build %s: %w", req.Blueprint, err)
	}
	prog, err := plan.Of(runner.Node())
	if err != nil {
		return "", fmt.Errorf("compile %s: %w", req.Blueprint, err)
	}
	steps := prog.Steps()
	if req.Step < 0 || req.Step >= len(steps) {
		return "", fmt.Errorf("step %d out of range: program has %d steps", req.Step, len(steps))
	}
	fan := steps[req.Step]
	if fan.Op() != plan.OpFanOut {
		return "", fmt.Errorf("step %d is %s, not a fan-out", req.Step, fan.Op())
	}
	body, err := plan.Of(fan.Child(0).Node())
	if err != nil {
		return "", fmt.Errorf("compile fan-out body: %w", err)
	}
	w.mu.Lock()
	w.blueprint = req.Blueprint
	w.codec = bp.Remote
	w.body = body
	if w.job != req.Job {
		w.job = req.Job
		w.slots = map[int]*taskSlot{}
	}
	w.mu.Unlock()
	return runner.Program(), nil
}

// slotFor returns the dedup slot of seq, creating it on first sight. fresh
// reports whether the slot is new (its muscle has not been started).
func (w *Worker) slotFor(seq int) (s *taskSlot, fresh bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	s, ok := w.slots[seq]
	if !ok {
		s = &taskSlot{}
		w.slots[seq] = s
	}
	return s, !ok
}

// handleTasks runs one NDJSON batch. The whole batch is parsed and
// validated before any task starts, so a torn or oversized frame, a
// negative seq, a job mismatch, or an admission shed fails the request
// atomically (nothing executed) and the coordinator can retry or requeue
// the batch without partial execution. Replayed tasks are served from the
// dedup slots.
func (w *Worker) handleTasks(rw http.ResponseWriter, r *http.Request) {
	w.mu.Lock()
	codec, body, job := w.codec, w.body, w.job
	w.mu.Unlock()
	if body == nil {
		writeJSON(rw, http.StatusConflict, TaskResponse{Seq: -1, Error: "no program loaded"})
		return
	}

	var reqs []TaskRequest
	sc := bufio.NewScanner(r.Body)
	// The buffer starts at the scanner's own 4 KiB, or the frame bound if
	// that is smaller, and grows to the frame bound only for a longer line:
	// task lines are short, and every batch pays for the buffer it starts with.
	sc.Buffer(nil, w.maxFrame)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var tr TaskRequest
		if err := json.Unmarshal(line, &tr); err != nil {
			writeJSON(rw, http.StatusBadRequest, TaskResponse{Seq: -1, Error: "torn task frame: " + err.Error()})
			return
		}
		if tr.Seq < 0 {
			writeJSON(rw, http.StatusBadRequest, TaskResponse{Seq: -1, Error: fmt.Sprintf("negative task seq %d", tr.Seq)})
			return
		}
		if tr.Job != "" && tr.Job != job {
			writeJSON(rw, http.StatusConflict, TaskResponse{Seq: -1,
				Error: fmt.Sprintf("job mismatch: batch is %q, loaded program is %q", tr.Job, job)})
			return
		}
		reqs = append(reqs, tr)
	}
	if err := sc.Err(); err != nil {
		msg := "reading task stream: " + err.Error()
		if errors.Is(err, bufio.ErrTooLong) {
			msg = fmt.Sprintf("task frame exceeds %d bytes", w.maxFrame)
		}
		writeJSON(rw, http.StatusBadRequest, TaskResponse{Seq: -1, Error: msg})
		return
	}

	// Admission control: count only tasks that would actually start —
	// replays of known seqs add no load and are never shed, so a saturated
	// worker still answers the retries that drain the coordinator's
	// ambiguity. The fresh count is conservative (slots are not created
	// yet), racing batches may both pass, which is the same soft bound the
	// daemon's queue shed accepts.
	if w.maxQueue > 0 {
		fresh := 0
		w.mu.Lock()
		for _, tr := range reqs {
			if _, ok := w.slots[tr.Seq]; !ok {
				fresh++
			}
		}
		w.mu.Unlock()
		if fresh > 0 && w.pool.QueueLen()+fresh > w.maxQueue {
			w.shed.Add(1)
			rw.Header().Set("Retry-After", "1")
			writeJSON(rw, http.StatusTooManyRequests, TaskResponse{Seq: -1,
				Error: fmt.Sprintf("task queue saturated (%d queued, max %d)", w.pool.QueueLen(), w.maxQueue)})
			return
		}
	}

	// Start (or attach to) every task's slot, then stream responses back in
	// request order: the pool provides the parallelism, the order keeps the
	// wire protocol trivially matchable.
	slots := make([]*taskSlot, len(reqs))
	for i, tr := range reqs {
		slot, freshSlot := w.slotFor(tr.Seq)
		if !freshSlot {
			w.deduped.Add(1)
		}
		slot.run(w, codec, body, tr.Part)
		slots[i] = slot
	}
	rw.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(rw)
	for i, tr := range reqs {
		resp := TaskResponse{Seq: tr.Seq}
		res, err := slots[i].get()
		if err == nil {
			var raw []byte
			raw, err = codec.EncodeResult(res)
			resp.Result = raw
		}
		if err != nil {
			resp.Error = err.Error()
		} else if slots[i].counted.CompareAndSwap(false, true) {
			w.tasks.Add(1)
		}
		_ = enc.Encode(resp)
		if f, ok := rw.(http.Flusher); ok {
			f.Flush()
		}
	}
}

func (w *Worker) handleLP(rw http.ResponseWriter, r *http.Request) {
	var req LPRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(rw, http.StatusBadRequest, map[string]string{"error": "malformed lp request: " + err.Error()})
		return
	}
	if req.LP < 1 {
		req.LP = 1
	}
	w.pool.SetLP(req.LP)
	writeJSON(rw, http.StatusOK, map[string]int{"lp": w.pool.LP()})
}

func writeJSON(rw http.ResponseWriter, status int, v any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	_ = json.NewEncoder(rw).Encode(v)
}
