package server

import (
	"encoding/json"
	"fmt"
	"sync"

	"skandium"
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
	prog, err := plan.Of(j.live.runner.Node())
	if err != nil {
		return false
	}
	return remote.Shardable(prog) != nil
}

// startRemote launches an admitted job on the cluster instead of the local
// pool. Like start, it is called with s.mu held (from admitLocked).
func (s *Server) startRemote(j *job) {
	r := &clusterRun{cluster: s.cfg.Cluster, done: make(chan struct{})}
	j.mu.Lock()
	l := j.live
	l.remote, l.runner = r, nil
	j.handle = r
	j.state = stateRunning
	j.started = s.clk.Now().Sub(s.startTime)
	j.mu.Unlock()
	if s.jn != nil {
		_ = s.jn.Start(j.id)
	}
	l.log.appendText(s.clk.Now(), fmt.Sprintf("cluster@route(%s tenant=%s)", j.skeleton, j.tenant),
		"cluster", "route", "cluster", "")
	s.remoteLogs[j.id] = l.log
	go func() {
		// The cluster builds the program again from the params, as its
		// workers do; j.params is the JSON the job marshaled, nil for none.
		var params skandium.Params
		_ = json.Unmarshal(j.params, &params)
		res, err := s.cfg.Cluster.RunAs(j.tenant, j.skeleton, params)
		s.mu.Lock()
		delete(s.remoteLogs, j.id)
		s.mu.Unlock()
		r.finish(res, err)
	}()
	go s.watch(j, l)
}

// onNodeEvent threads a cluster health transition into the event log of
// every job currently running on the cluster — the job's stream of events
// shows the node loss (and recovery) that explains its timeline. Records
// carry the full state transition and the classified failure cause
// ("refused", "timeout", "http-5xx", ...), not just a binary up/down.
func (s *Server) onNodeEvent(ev remote.NodeEvent) {
	s.mu.Lock()
	logs := make([]*eventLog, 0, len(s.remoteLogs))
	for _, l := range s.remoteLogs {
		logs = append(logs, l)
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
	for _, l := range logs {
		l.appendText(ev.Time, fmt.Sprintf("cluster@%s(%s)", kind, detail),
			"cluster", kind, ev.Addr, ev.Err)
	}
}

// clusterRun is the execution of a cluster-routed job. The cluster owns
// it — sharding, retry, per-node LP through the cluster arbiter — so the
// job has no local pool to cap and no controller to re-aim: its readings
// are those of an execution that ran nothing locally, but for its LP,
// which is the cluster's, and its one lever is cancel.
type clusterRun struct {
	readings
	cluster *remote.Cluster
	done    chan struct{}
	once    sync.Once
	res     any // set once, by finish, before done closes
	err     error
}

func (r *clusterRun) finish(res any, err error) {
	r.once.Do(func() {
		r.res, r.err = res, err
		close(r.done)
	})
}

// result waits for the run's result.
func (r *clusterRun) result() (any, error) {
	<-r.done
	return r.res, r.err
}

func (r *clusterRun) LP() int { return r.cluster.LP() }

// cancel resolves the run with err; the in-flight cluster tasks finish on
// their workers but their results are discarded.
func (r *clusterRun) cancel(err error) { r.finish(nil, err) }
