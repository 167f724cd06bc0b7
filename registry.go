package skandium

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"skandium/internal/exec"
	"skandium/internal/skel"
)

// Params is the decoded JSON parameter bag of a daemon job submission.
// Numbers arrive as float64 (JSON); the accessors below normalize.
type Params map[string]any

// Int reads an integer parameter, falling back to def when absent or of the
// wrong shape.
func (p Params) Int(key string, def int) int {
	switch v := p[key].(type) {
	case int:
		return v
	case int64:
		return int(v)
	case float64:
		return int(v)
	default:
		return def
	}
}

// Float reads a float parameter with a default.
func (p Params) Float(key string, def float64) float64 {
	switch v := p[key].(type) {
	case float64:
		return v
	case int:
		return float64(v)
	default:
		return def
	}
}

// String reads a string parameter with a default.
func (p Params) String(key, def string) string {
	if v, ok := p[key].(string); ok {
		return v
	}
	return def
}

// Blueprint is a named, daemon-runnable skeleton program: a description
// plus a factory that erases the generic types so jobs can be built from
// JSON submissions.
type Blueprint struct {
	// Name is the registry key ("wordcount", "mergesort", ...).
	Name string
	// Description is a one-line human summary for the catalog listing.
	Description string
	// Defaults documents the recognized params with their default values.
	Defaults Params
	// Build compiles the program and its input for one job.
	Build func(p Params) (Runner, error)
	// Remote, when non-nil, marks the blueprint cluster-eligible: its task
	// parameters and results survive a trip over the wire. Muscles are Go
	// functions and never ship — a worker re-Builds the blueprint by name
	// with the job's params and walks the same compiled program — but the
	// *values* flowing through the fan-out do ship, and JSON round-trips
	// erase their Go types. The codec restores them on each side.
	Remote *RemoteCodec
}

// RemoteCodec converts the values crossing the coordinator/worker wire: the
// fan-out parts shipped to workers and the per-part results shipped back.
type RemoteCodec struct {
	EncodePart   func(v any) ([]byte, error)
	DecodePart   func(b []byte) (any, error)
	EncodeResult func(v any) ([]byte, error)
	DecodeResult func(b []byte) (any, error)
}

// JSONCodec builds a RemoteCodec that marshals parts and results as JSON
// into their concrete types — the easy path for blueprints whose fan-out
// values are plain JSON-friendly structs.
func JSONCodec[Part, Res any]() *RemoteCodec {
	return &RemoteCodec{
		EncodePart: func(v any) ([]byte, error) { return json.Marshal(v) },
		DecodePart: func(b []byte) (any, error) {
			var p Part
			if err := json.Unmarshal(b, &p); err != nil {
				return nil, err
			}
			return p, nil
		},
		EncodeResult: func(v any) ([]byte, error) { return json.Marshal(v) },
		DecodeResult: func(b []byte) (any, error) {
			var r Res
			if err := json.Unmarshal(b, &r); err != nil {
				return nil, err
			}
			return r, nil
		},
	}
}

// Runner is one job's erased launcher: a compiled skeleton program plus the
// input it will process, detached from the generic P/R types.
type Runner interface {
	// Program renders the skeleton in the paper's syntax.
	Program() string
	// Node exposes the underlying skeleton tree — the compilation root a
	// coordinator or worker hands to the plan compiler.
	Node() *skel.Node
	// Input returns the erased job input (what Start would inject).
	Input() any
	// Start builds a fresh stream with opts, injects the job's input, and
	// returns the erased execution handle. Call it exactly once.
	Start(opts ...Option) Handle
}

// Handle is the erased face of one running job: the execution plus its
// stream's levers, which is exactly what a multi-job daemon needs — wait,
// read the autonomic record, adjust QoS, obey a budget arbiter, tear down.
type Handle interface {
	// Done is closed when the execution resolves.
	Done() <-chan struct{}
	// Result blocks until done and returns the erased result.
	Result() (any, error)
	// Decisions returns the autonomic adaptation log.
	Decisions() []Decision
	// Analyses returns how many controller analyses ran.
	Analyses() int
	// Demand returns the controller's latest resource wish.
	Demand() Demand
	// LP returns the pool's current level of parallelism.
	LP() int
	// Active returns the number of workers currently running a task.
	Active() int
	// SetCap imposes/lifts the arbiter's external LP cap.
	SetCap(n int)
	// SetGoal adjusts the WCT goal at runtime.
	SetGoal(d time.Duration)
	// SetMaxLP adjusts the LP QoS cap at runtime (pool and controller).
	SetMaxLP(n int)
	// Stats returns the pool's execution counters.
	Stats() exec.Stats
	// FaultStats returns the fault-tolerance counters.
	FaultStats() FaultStats
	// Failures returns the branch failures absorbed by the partial-failure
	// policy (nil when none — the result is complete).
	Failures() *FailureError
	// Cancel aborts the execution; its Result returns err.
	Cancel(err error)
	// Close shuts the job's stream down (idempotent).
	Close()
	// Wait blocks, after Close and once the execution has resolved, until
	// the job has stopped: the muscles running at Close have finished and
	// the controller has let go, so no reading changes any more.
	Wait()
}

// NewRunner erases a typed skeleton program and its input into a Runner —
// the bridge between compile-time-typed library code and the daemon's
// JSON-typed job submissions.
func NewRunner[P, R any](s Skeleton[P, R], input P) Runner {
	return &runner[P, R]{s: s, input: input}
}

type runner[P, R any] struct {
	s     Skeleton[P, R]
	input P
}

func (r *runner[P, R]) Program() string { return r.s.String() }

func (r *runner[P, R]) Node() *skel.Node { return r.s.Node() }

func (r *runner[P, R]) Input() any { return r.input }

func (r *runner[P, R]) Start(opts ...Option) Handle {
	st := NewStream[P, R](r.s, opts...)
	return &handle[P, R]{st: st, ex: st.Input(r.input)}
}

type handle[P, R any] struct {
	st *Stream[P, R]
	ex *Execution[R]
}

func (h *handle[P, R]) Done() <-chan struct{} { return h.ex.Done() }
func (h *handle[P, R]) Result() (any, error) {
	r, err := h.ex.Get()
	return r, err
}
func (h *handle[P, R]) Decisions() []Decision { return h.ex.Decisions() }
func (h *handle[P, R]) Analyses() int         { return h.ex.Analyses() }
func (h *handle[P, R]) Demand() Demand        { return h.ex.Demand() }
func (h *handle[P, R]) LP() int               { return h.st.LP() }
func (h *handle[P, R]) Active() int           { return h.st.Active() }
func (h *handle[P, R]) SetCap(n int)          { h.st.SetCap(n) }
func (h *handle[P, R]) SetGoal(d time.Duration) {
	h.ex.SetGoal(d)
}
func (h *handle[P, R]) SetMaxLP(n int) {
	h.st.SetMaxLP(n)
	h.ex.SetMaxLP(n)
}
func (h *handle[P, R]) Stats() exec.Stats       { return h.st.Stats() }
func (h *handle[P, R]) FaultStats() FaultStats  { return h.st.FaultStats() }
func (h *handle[P, R]) Failures() *FailureError { return h.ex.Failures() }
func (h *handle[P, R]) Cancel(err error)        { h.ex.Cancel(err) }
func (h *handle[P, R]) Close()                  { h.st.Close() }
func (h *handle[P, R]) Wait() {
	h.st.pool.Wait()
	h.ex.released.Wait()
}

// The process-wide blueprint registry. Register at init time; the daemon
// lists and looks blueprints up by name.
var (
	blueprintMu  sync.Mutex
	blueprintMap = map[string]Blueprint{}
)

// RegisterBlueprint adds a named blueprint. It panics on an empty name, a
// nil Build or a duplicate registration — all programming errors.
func RegisterBlueprint(b Blueprint) {
	if b.Name == "" || b.Build == nil {
		panic("skandium: RegisterBlueprint with empty name or nil Build")
	}
	blueprintMu.Lock()
	defer blueprintMu.Unlock()
	if _, dup := blueprintMap[b.Name]; dup {
		panic(fmt.Sprintf("skandium: blueprint %q registered twice", b.Name))
	}
	blueprintMap[b.Name] = b
}

// LookupBlueprint finds a registered blueprint by name.
func LookupBlueprint(name string) (Blueprint, bool) {
	blueprintMu.Lock()
	defer blueprintMu.Unlock()
	b, ok := blueprintMap[name]
	return b, ok
}

// Blueprints returns all registered blueprints sorted by name.
func Blueprints() []Blueprint {
	blueprintMu.Lock()
	defer blueprintMu.Unlock()
	out := make([]Blueprint, 0, len(blueprintMap))
	for _, b := range blueprintMap {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
