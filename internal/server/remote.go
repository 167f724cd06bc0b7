package server

import (
	"fmt"
	"sync"

	"skandium/internal/plan"
	"skandium/internal/remote"
)

// remoteEligible reports whether a job can route through the cluster: the
// blueprint declares a remote codec, its program is shardable, and the job
// uses none of the knobs that only the local stream implements (WCT goal,
// fault-tolerance envelope) — those jobs keep the local path unchanged.
func (s *Server) remoteEligible(j *job) bool {
	if !j.remoteOK {
		return false
	}
	prog, err := plan.Of(j.runner.Node())
	if err != nil {
		return false
	}
	return remote.Shardable(prog) != nil
}

// startRemote launches an admitted job on the cluster instead of the local
// pool. Like start, it is called with s.mu held (from admitLocked).
func (s *Server) startRemote(j *job) {
	h := &remoteHandle{cluster: s.cfg.Cluster, done: make(chan struct{})}
	j.mu.Lock()
	j.handle = h
	j.state = stateRunning
	j.started = s.clk.Now()
	j.mu.Unlock()
	if s.jn != nil {
		_ = s.jn.Start(j.id)
	}
	j.log.appendText(s.clk.Now(), fmt.Sprintf("cluster@route(%s tenant=%s)", j.skeleton, j.tenant),
		"cluster", "route", "cluster", "")
	s.remoteJobs[j.id] = j
	go func() {
		res, err := s.cfg.Cluster.RunAs(j.tenant, j.skeleton, j.params)
		s.mu.Lock()
		delete(s.remoteJobs, j.id)
		s.mu.Unlock()
		h.finish(res, err)
	}()
	go s.watch(j, h)
}

// onNodeEvent threads a cluster health transition into the event log of
// every job currently running on the cluster — the job's stream of events
// shows the node loss (and recovery) that explains its timeline. Records
// carry the full state transition and the classified failure cause
// ("refused", "timeout", "http-5xx", ...), not just a binary up/down.
func (s *Server) onNodeEvent(ev remote.NodeEvent) {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.remoteJobs))
	for _, j := range s.remoteJobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	// node-down / node-up name the serving boundary (the transitions the
	// dispatcher acts on); everything else is a node-state refinement
	// (healthy→suspect, down→probation, probation→healthy, ...).
	var kind string
	switch {
	case ev.To == remote.StateDown:
		kind = "node-down"
	case ev.From == remote.StateDown:
		kind = "node-up"
	default:
		kind = "node-state"
	}
	detail := ev.Addr
	if ev.From != ev.To {
		detail = fmt.Sprintf("%s %s→%s", ev.Addr, ev.From, ev.To)
	}
	if ev.Cause != "" {
		detail += " cause=" + ev.Cause
	}
	for _, j := range jobs {
		j.log.appendText(ev.Time, fmt.Sprintf("cluster@%s(%s)", kind, detail),
			"cluster", kind, ev.Addr, ev.Err)
	}
}

// remoteHandle is the erased face of a cluster-routed job. The cluster owns
// execution (sharding, retry, per-node LP via the cluster arbiter), so the
// per-stream levers are inert and the local counters zero — a frozenHandle
// with nothing in it but the result supplies both: there is no local pool
// to cap and no controller to re-aim, and no local counter for Wait to
// wait on. Result/Done/Cancel behave exactly like the local handle, which
// is all the daemon's watch loop relies on.
type remoteHandle struct {
	frozenHandle // res and err are set once, by finish, under mu
	cluster      *remote.Cluster
	done         chan struct{}
	once         sync.Once
	mu           sync.Mutex
}

func (h *remoteHandle) finish(res any, err error) {
	h.once.Do(func() {
		h.mu.Lock()
		h.res, h.err = res, err
		h.mu.Unlock()
		close(h.done)
	})
}

func (h *remoteHandle) Done() <-chan struct{} { return h.done }

func (h *remoteHandle) Result() (any, error) {
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.res, h.err
}

func (h *remoteHandle) LP() int { return h.cluster.LP() }

// Cancel resolves the handle with err; the in-flight cluster tasks finish
// on their workers but their results are discarded.
func (h *remoteHandle) Cancel(err error) { h.finish(nil, err) }
