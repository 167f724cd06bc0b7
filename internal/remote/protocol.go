// Package remote turns the paper's §4/§6 sketch — "a centralised
// distribution of tasks to a distributed set of workers, adding or removing
// workers like adding or removing threads in a centralised manner" — into
// running processes: skelworker processes interpret the shared compiled
// program IR behind an HTTP/NDJSON endpoint, and a coordinator (Cluster)
// shards fan-out tasks across them under a cluster-wide LP budget arbiter.
//
// Muscles are Go functions and never cross the wire. A program is shipped
// *by name*: the coordinator sends {blueprint, params, step} and the worker
// re-builds the identical skeleton from its own blueprint registry, compiles
// it through the same plan.Of, and walks the same IR — the registry is the
// code-distribution mechanism, exactly like the class name in the paper's
// Java transfer objects. Values DO cross the wire, so only blueprints that
// declare a RemoteCodec (skandium.Blueprint.Remote) are cluster-eligible.
package remote

import "encoding/json"

// DefaultMaxFrame bounds one NDJSON line on the task endpoint. Oversized
// frames are rejected cleanly (HTTP 400), never buffered unboundedly.
const DefaultMaxFrame = 4 << 20

// ProgramRequest loads a job's program onto a worker (POST /program). The
// worker resolves Blueprint in its registry, builds it with Params, compiles
// the skeleton to the IR and pins the fan-out step at pre-order index Step
// as the per-task entry point. A worker holds one program at a time.
type ProgramRequest struct {
	Blueprint string         `json:"blueprint"`
	Params    map[string]any `json:"params,omitempty"`
	Step      int            `json:"step"`
	// Job is the coordinator's unique epoch for this job run. Loading a
	// program under a new Job resets the worker's per-task dedup state;
	// re-loading the same Job (a re-admitted node rejoining mid-job)
	// preserves it, so replayed batches still hit the cache.
	Job string `json:"job,omitempty"`
	// Tenant tags the dispatch with the submitting tenant, so worker logs
	// and metrics can attribute cluster load. Optional and informational:
	// admission fairness is enforced at the coordinator's front door.
	Tenant string `json:"tenant,omitempty"`
}

// ProgramResponse acknowledges a program load. Program echoes the worker's
// own rendering of the skeleton in the paper's syntax, so the coordinator
// can detect a registry drift (same name, different program) early.
type ProgramResponse struct {
	OK      bool   `json:"ok"`
	Program string `json:"program,omitempty"`
	Error   string `json:"error,omitempty"`
}

// TaskRequest is one NDJSON line of a task batch (POST /tasks): a fan-out
// part, encoded by the blueprint's RemoteCodec, tagged with the
// coordinator's sequence number. Seq is never negative: a reply line with
// Seq -1 rejects the whole batch.
type TaskRequest struct {
	Seq  int             `json:"seq"`
	Part json.RawMessage `json:"part"`
	// Job fences the task to its job epoch: a worker rejects batches whose
	// Job differs from its loaded program's (HTTP 409), so a delayed
	// retransmission from an earlier job can never execute under a newer
	// program.
	Job string `json:"job,omitempty"`
}

// TaskResponse is the worker's NDJSON reply line for one task.
type TaskResponse struct {
	Seq    int             `json:"seq"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// HealthResponse is the worker's probe reply (GET /healthz): the pool
// counters the coordinator converts into a core.NodeReport, which is what
// the cluster arbiter divides the global LP budget by.
type HealthResponse struct {
	OK        bool   `json:"ok"`
	Blueprint string `json:"blueprint,omitempty"`
	LP        int    `json:"lp"`
	Active    int    `json:"active"`
	Queued    int    `json:"queued"`
	MaxLP     int    `json:"max_lp"`
	Tasks     int64  `json:"tasks"`
	// Deduped counts task requests served from the idempotency cache
	// instead of re-executing the muscle (coordinator replays absorbed).
	Deduped int64 `json:"deduped,omitempty"`
	// Shed counts task batches refused with 429 under admission control.
	Shed int64 `json:"shed,omitempty"`
}

// LPRequest pushes an arbiter grant to the worker's pool (POST /lp).
type LPRequest struct {
	LP int `json:"lp"`
}
