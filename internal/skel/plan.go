package skel

// The compiled-program cache. A skeleton tree is compiled once per
// execution root into the program IR of internal/plan; the compiled form is
// cached here, on the root node itself, so it is shared by all concurrent
// executions and all engines (interpreter, simulator, ADG builder, cluster)
// and stays alive exactly as long as the node does. The value is opaque to
// skel — plan depends on skel, not the other way around.
//
// Nodes are immutable after construction, so a cached program can never go
// stale: a new tree starts with an empty slot, and a subtree shared by two
// trees keeps the program compiled for roots at it.

// CachedPlan returns the compiled program cached for executions rooted at
// n, or nil when none has been stored yet.
func (n *Node) CachedPlan() any { return n.plan.Load() }

// CachePlan publishes p as the compiled program for roots at n and returns
// the winning value: p itself, or the program another goroutine raced in
// first. All callers must store the same concrete type.
func (n *Node) CachePlan(p any) any {
	if n.plan.CompareAndSwap(nil, p) {
		return p
	}
	return n.plan.Load()
}
