package core

// Node-level arbitration. The Arbiter that divides one machine's LP budget
// over the jobs running on it also divides a cluster-wide LP budget over
// worker *nodes*, granting each node the level of parallelism it may spend.
// The paper's §6 frames node count as "adding or removing workers like
// adding or removing threads in a centralised manner" — the same asymmetric
// policy one level up again: grants rise eagerly toward a node's wish, fall
// by halving, and the sum of all per-node grants never exceeds the global
// budget (the invariant the coordinator relies on to promise bounded
// cluster load).
//
// Members are node proxies (remote.Cluster adapts each worker endpoint into
// a Member whose Demand is its thread cap while a job is dispatched and is
// built from the worker's reported counters via NodeDemand between jobs,
// and whose Grant pushes the share to the worker's pool), keyed
// by node address. Node loss is Release — the dead node's share flows to
// the survivors on the very next rebalance, which is what makes
// SIGKILL-resilient rebalancing budget-safe. On the virtual clock the whole
// grant history is deterministic, which is how the multi-node simulator
// tests assert the Σ grants ≤ budget invariant.

// NodeReport is a worker node's self-reported runtime state, as carried by
// its health probe response.
type NodeReport struct {
	// LP is the node pool's current (capped) level of parallelism.
	LP int
	// Active is the number of node workers currently executing a task.
	Active int
	// Queued is the number of tasks waiting for a node worker.
	Queued int
	// MaxLP is the node's hard thread cap (0 = unbounded).
	MaxLP int
}

// NodeDemand converts a node report into the Demand vocabulary the arbiter
// policy divides by: a node asks for as many workers as it could employ
// right now (running plus queued tasks, clamped to its thread cap), with a
// floor of one so an idle node keeps a grant to accept the next task
// without a round trip through the arbiter. It is a node's demand between
// jobs only: while a job holds the cluster, remote.Cluster's node proxies
// ask for their whole thread cap instead, because a report sampled mid-job
// shows no more work than the grant already sized the batches for, and
// would shrink the very share the job is using. Nodes have no WCT goal of
// their own (goals belong to jobs), so node demands are never "severe" —
// under budget pressure the largest grant is halved first, exactly the
// slack-pays-before-need rule of the single-node arbiter.
func NodeDemand(r NodeReport) Demand {
	want := r.Active + r.Queued
	if r.MaxLP > 0 && want > r.MaxLP {
		want = r.MaxLP
	}
	if want < 1 {
		want = 1
	}
	cur := r.LP
	if cur < 1 {
		cur = 1
	}
	return Demand{Valid: true, CurrentLP: cur, DesiredLP: want}
}

// CapDemand clamps a node demand to at most cap workers — the probation
// share: a node re-admitted after a partition asks for no more than cap
// until it has re-earned trust, so a flapping node can never seize a large
// budget slice it is about to drop again. The arbiter itself is unchanged:
// probation is expressed purely through the demand the node proxy reports,
// which keeps Σ grants ≤ budget a single invariant with a single enforcer.
func CapDemand(d Demand, cap int) Demand {
	if cap < 1 {
		cap = 1
	}
	if d.DesiredLP > cap {
		d.DesiredLP = cap
	}
	if d.CurrentLP > cap {
		d.CurrentLP = cap
	}
	return d
}
