package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"skandium"
	"skandium/internal/clock"
	"skandium/internal/remote"
)

// newTestCluster serves in-process workers over loopback HTTP and builds a
// coordinator on them, returning the worker servers for mid-test sabotage.
func newTestCluster(t *testing.T, workers int) (*remote.Cluster, []*httptest.Server) {
	t.Helper()
	var endpoints []string
	wss := make([]*httptest.Server, workers)
	for i := range wss {
		w := remote.NewWorker(remote.WorkerConfig{LP: 2, MaxLP: 4})
		ws := httptest.NewServer(w.Handler())
		t.Cleanup(func() { ws.Close(); w.Close() })
		wss[i] = ws
		endpoints = append(endpoints, ws.URL)
	}
	cl, err := remote.New(remote.Config{
		Workers:       endpoints,
		Budget:        4,
		ProbeInterval: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl, wss
}

// newTestClusterDaemon boots a daemon on a fresh test cluster.
func newTestClusterDaemon(t *testing.T, workers int) (*Server, *httptest.Server, []*httptest.Server) {
	t.Helper()
	cl, wss := newTestCluster(t, workers)
	srv, ts := newTestDaemon(t, Config{Budget: 4, Cluster: cl})
	return srv, ts, wss
}

// waitJobDone waits until j is terminal, on its local stream while it runs
// one, and returns its summary and error.
func waitJobDone(t *testing.T, j *job) (string, error) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		j.mu.Lock()
		st, stream, sum, err := j.state, j.streamLocked(), j.summary, j.err
		j.mu.Unlock()
		if st.terminal() {
			return sum, err
		}
		if stream != nil {
			select {
			case <-stream.Done():
			case <-time.After(10 * time.Millisecond):
			}
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}
	t.Fatal("job never finished")
	return "", nil
}

// waitRouted waits until j runs on the cluster.
func waitRouted(t *testing.T, j *job) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		j.mu.Lock()
		_, routed := j.handle.(*clusterRun)
		j.mu.Unlock()
		if routed {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the job never ran on the cluster")
		}
	}
}

// jobEvents renders a job's full event log as one NDJSON string.
func jobEvents(j *job) string {
	var sb strings.Builder
	for rd := j.events().reader(0); ; {
		out, _ := rd.next(waitNone)
		if len(out) == 0 {
			return sb.String()
		}
		sb.Write(out)
	}
}

// TestServerRoutesEligibleJobToCluster: a goal-less sleepgrid routes to the
// workers, completes with the right result, and the daemon's metrics and
// health endpoints expose the per-node cluster state.
func TestServerRoutesEligibleJobToCluster(t *testing.T) {
	srv, ts, _ := newTestClusterDaemon(t, 2)

	j, err := srv.Submit(SubmitSpec{
		Skeleton: "sleepgrid",
		Params:   map[string]any{"k": 4, "m": 4, "cell_ms": 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := waitJobDone(t, j)
	if err != nil {
		t.Fatal(err)
	}
	if res != "16" {
		t.Fatalf("result %v, want 16 surviving cells", res)
	}
	if evs := jobEvents(j); !strings.Contains(evs, "cluster@route") {
		t.Fatalf("event log lacks the cluster routing marker:\n%s", evs)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"skelrund_cluster_budget 4",
		"skelrund_cluster_node_up{node=",
		"skelrund_cluster_node_tasks_total{node=",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics lacks %q:\n%s", want, body)
		}
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"cluster"`) || !strings.Contains(string(body), `"healthy": 2`) {
		t.Fatalf("/healthz lacks the cluster section:\n%s", body)
	}
}

// TestClusterJobIgnoresLevers: PATCH /jobs/{id}/qos on a job the cluster
// runs answers 200 and reaches no lever, for its cluster run has none but
// cancel: the cluster's own arbiter sets its LP, and the job finishes as it
// would have.
func TestClusterJobIgnoresLevers(t *testing.T) {
	srv, ts, _ := newTestClusterDaemon(t, 2)
	j, err := srv.Submit(SubmitSpec{
		Skeleton: "sleepgrid",
		Params:   map[string]any{"k": 4, "m": 4, "cell_ms": 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitRouted(t, j)
	if code := status(t, "PATCH", ts.URL+"/jobs/"+j.id+"/qos", `{"goal_ms":500,"max_lp":1}`); code != http.StatusOK {
		t.Fatalf("PATCH of a cluster job: %d, want 200", code)
	}
	if res, err := waitJobDone(t, j); err != nil || res != "16" {
		t.Fatalf("result %v (%v), want 16 surviving cells", res, err)
	}
}

// TestClusterJobCancel: DELETE /jobs/{id} on a job the cluster runs
// resolves it at once, canceled; the tasks in flight finish on their
// workers and their results are dropped.
func TestClusterJobCancel(t *testing.T) {
	srv, ts, _ := newTestClusterDaemon(t, 2)
	j, err := srv.Submit(SubmitSpec{
		Skeleton: "sleepgrid",
		Params:   map[string]any{"k": 4, "m": 4, "cell_ms": 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitRouted(t, j)
	if code := status(t, "DELETE", ts.URL+"/jobs/"+j.id, ""); code != http.StatusOK {
		t.Fatalf("DELETE of a cluster job: %d, want 200", code)
	}
	if _, err := waitJobDone(t, j); err != errCanceled {
		t.Fatalf("a canceled cluster job ended with %v, want %v", err, errCanceled)
	}
	waitFrozen(t, j)
	if v := getJSON[jobView](t, ts.URL+"/jobs/"+j.id); v.State != string(stateCanceled) || v.Result != "" {
		t.Fatalf("a canceled cluster job reads state %s, result %q", v.State, v.Result)
	}
	// The cluster run goes on until its tasks are back; wait for it.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		srv.mu.Lock()
		running := len(srv.remoteLogs)
		srv.mu.Unlock()
		if running == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the canceled cluster run never returned")
		}
	}
}

// TestServerRecoveredJobRoutesToCluster: journal recovery builds a
// re-queued job with the same constructor as a submission, so a
// cluster-eligible job the crash left queued routes to the workers exactly
// as a freshly submitted one does.
func TestServerRecoveredJobRoutesToCluster(t *testing.T) {
	dir := t.TempDir()
	jn1, _ := openJournal(t, dir)
	if err := jn1.Submit("job-1", sleepSpec(2)); err != nil {
		t.Fatalf("journal submit: %v", err)
	}
	_ = jn1.Close() // crash: the job never started

	jn2, states := openJournal(t, dir)
	cl, _ := newTestCluster(t, 2)
	srv, _ := newTestDaemon(t, Config{Budget: 4, Cluster: cl, Journal: jn2, Recover: states})
	j, ok := srv.Job("job-1")
	if !ok {
		t.Fatal("job-1 not recovered")
	}
	res, err := waitJobDone(t, j)
	if err != nil {
		t.Fatal(err)
	}
	if res != "16" {
		t.Fatalf("result %v, want 16 surviving cells", res)
	}
	if evs := jobEvents(j); !strings.Contains(evs, "cluster@route") {
		t.Fatalf("recovered job ran locally; its event log lacks the cluster routing marker:\n%s", evs)
	}
}

// TestServerKeepsGoalJobsLocal: a WCT goal needs the local controller, so
// the job must not route to the cluster.
func TestServerKeepsGoalJobsLocal(t *testing.T) {
	srv, _, _ := newTestClusterDaemon(t, 1)
	j, err := srv.Submit(SubmitSpec{
		Skeleton: "sleepgrid",
		Params:   map[string]any{"k": 2, "m": 2, "cell_ms": 1},
		Goal:     500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := waitJobDone(t, j); err != nil {
		t.Fatal(err)
	}
	if evs := jobEvents(j); strings.Contains(evs, "cluster@route") {
		t.Fatal("goal-bearing job was routed to the cluster")
	}
}

// TestServerNodeLossInJobLog: killing a worker mid-job lands a node-down
// record in the running job's event log, and the job still completes on
// the survivor.
func TestServerNodeLossInJobLog(t *testing.T) {
	srv, _, wss := newTestClusterDaemon(t, 2)

	j, err := srv.Submit(SubmitSpec{
		Skeleton: "sleepgrid",
		Params:   map[string]any{"k": 6, "m": 4, "cell_ms": 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	time.AfterFunc(150*time.Millisecond, wss[1].CloseClientConnections)
	time.AfterFunc(160*time.Millisecond, wss[1].Close)

	res, err := waitJobDone(t, j)
	if err != nil {
		t.Fatalf("job failed despite a surviving worker: %v", err)
	}
	if res != "24" {
		t.Fatalf("result %v, want 24", res)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if evs := jobEvents(j); strings.Contains(evs, "cluster@node-down") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no node-down record in the job event log:\n%s", jobEvents(j))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBrownoutTogglesClusterHedging: queue pressure held past the brownout
// delay turns the cluster's straggler hedging off and writes
// admission@brownout-on into every live job's events; calm held past the
// exit delay turns hedging back on and writes admission@brownout-off. The
// daemon runs on a virtual clock, so both delays pass at once, and its jobs
// carry a goal, which keeps them on the local pool.
func TestBrownoutTogglesClusterHedging(t *testing.T) {
	w := remote.NewWorker(remote.WorkerConfig{LP: 2, MaxLP: 4})
	ws := httptest.NewServer(w.Handler())
	t.Cleanup(func() { ws.Close(); w.Close() })
	cl, err := remote.New(remote.Config{
		Workers:       []string{ws.URL},
		Budget:        4,
		ProbeInterval: 10 * time.Millisecond,
		HedgeAfter:    time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	// hedged runs two 100 ms shards on the cluster and returns how many
	// of them the coordinator hedged.
	hedged := func() int64 {
		t.Helper()
		before := cl.Hedged()
		if _, err := cl.Run("sleepgrid", skandium.Params{"k": 2, "m": 1, "cell_ms": 100}); err != nil {
			t.Fatal(err)
		}
		return cl.Hedged() - before
	}

	clk := clock.NewVirtual(clock.Epoch)
	srv, _ := newTestDaemon(t, Config{Budget: 1, QueueMax: 2, Cluster: cl, Clock: clk})
	spec := func(cells int) SubmitSpec {
		return SubmitSpec{Skeleton: "sleepgrid", Goal: time.Hour,
			Params: skandium.Params{"k": cells, "m": cells, "cell_ms": 5}}
	}
	long := submit(t, srv, spec(1000))
	queued := []*job{submit(t, srv, spec(1)), submit(t, srv, spec(1))}
	srv.Health()
	clk.Advance(time.Second)
	if h := srv.Health(); h != HealthBrownedOut {
		t.Fatalf("health %s under a full queue, want %s", h, HealthBrownedOut)
	}
	if n := hedged(); n != 0 {
		t.Fatalf("the cluster hedged %d shards while browned out, want 0", n)
	}

	for _, j := range queued {
		srv.Cancel(j.id)
	}
	srv.Health()
	clk.Advance(2 * time.Second)
	if h := srv.Health(); h != HealthOK {
		t.Fatalf("health %s once calm, want %s", h, HealthOK)
	}
	if n := hedged(); n == 0 {
		t.Fatal("the cluster hedged no shard once the brownout cleared")
	}

	for _, j := range append([]*job{long}, queued...) {
		ev := jobEvents(j)
		if !strings.Contains(ev, "admission@brownout-on") {
			t.Errorf("%s: no admission@brownout-on in its events", j.id)
		}
		if off := strings.Contains(ev, "admission@brownout-off"); off != (j == long) {
			t.Errorf("%s: admission@brownout-off in its events is %v, want it only in the live %s", j.id, off, long.id)
		}
	}
	srv.Cancel(long.id)
}
