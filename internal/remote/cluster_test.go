package remote

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skandium"
	"skandium/internal/clock"
	"skandium/internal/muscle"
	"skandium/internal/plan"
	"skandium/internal/skel"
)

// newTestCluster builds a coordinator over in-process workers served on
// real HTTP listeners.
func newTestCluster(t *testing.T, cfg Config, workers int) (*Cluster, []*Worker) {
	t.Helper()
	ws := make([]*Worker, workers)
	for i := range ws {
		w := NewWorker(WorkerConfig{LP: 2, MaxLP: 4})
		srv := httptest.NewServer(w.Handler())
		t.Cleanup(func() { srv.Close(); w.Close() })
		ws[i] = w
		cfg.Workers = append(cfg.Workers, srv.URL)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, ws
}

func TestClusterRunFarmJob(t *testing.T) {
	c, ws := newTestCluster(t, Config{Budget: 6, ProbeInterval: 25 * time.Millisecond}, 2)
	res, err := c.Run("remotetest-grid", skandium.Params{"n": 16})
	if err != nil {
		t.Fatal(err)
	}
	if res != gridSum(16) {
		t.Fatalf("result %v, want %d", res, gridSum(16))
	}
	total := int64(0)
	for _, w := range ws {
		total += w.tasks.Load()
	}
	if total != 16 {
		t.Fatalf("workers executed %d tasks, want 16", total)
	}
	if c.Granted() > c.Budget() {
		t.Fatalf("granted %d exceeds budget %d", c.Granted(), c.Budget())
	}
}

func TestClusterRejectsIneligible(t *testing.T) {
	c, _ := newTestCluster(t, Config{}, 1)
	if _, err := c.Run("remotetest-local", nil); err == nil ||
		!strings.Contains(err.Error(), "not cluster-eligible") {
		t.Fatalf("err %v, want cluster-eligibility refusal", err)
	}
	if _, err := c.Run("no-such", nil); err == nil ||
		!strings.Contains(err.Error(), "unknown blueprint") {
		t.Fatalf("err %v, want unknown-blueprint refusal", err)
	}
}

func TestClusterTaskErrorFailsJob(t *testing.T) {
	c, _ := newTestCluster(t, Config{}, 1)
	if _, err := c.Run("remotetest-failing", nil); err == nil ||
		!strings.Contains(err.Error(), "cell exploded") {
		t.Fatalf("err %v, want the muscle error surfaced (not retried forever)", err)
	}
}

// TestClusterBacksOffBusyWorker: a worker whose queue is full answers 429
// with Retry-After 1. The coordinator sleeps that hint on its clock and
// keeps serving the node instead of failing it; once the queue drains,
// every task of the job completes exactly once.
func TestClusterBacksOffBusyWorker(t *testing.T) {
	gate := make(chan struct{})
	cellGate.Store(&gate)
	countInvocations.Store(0)
	w, s := newTestWorker(t, WorkerConfig{LP: 1, MaxLP: 1, MaxQueue: 1})

	// Fill the worker: one gated task runs and one waits in its queue. Each
	// goes in a batch of its own, as a batch of two would not fit the queue.
	if code, pr := postProgram(t, s.URL, ProgramRequest{Blueprint: "remotetest-gate", Step: 1, Job: "filler"}); code != http.StatusOK || !pr.OK {
		t.Fatalf("program load: %d %+v", code, pr)
	}
	filled := make(chan error, 2)
	fill := func(seq int) {
		part, _ := json.Marshal(gridCell{N: seq})
		body, _ := json.Marshal(TaskRequest{Seq: seq, Part: part, Job: "filler"})
		go func() {
			resp, err := http.Post(s.URL+"/tasks", "application/x-ndjson", bytes.NewReader(body))
			if err == nil {
				if resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("filler task %d: HTTP %d", seq, resp.StatusCode)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			filled <- err
		}()
	}
	fill(0)
	waitCond(t, "the first filler task running", 5*time.Second, func() bool { return w.pool.Active() == 1 })
	fill(1)
	waitCond(t, "a full worker queue", 5*time.Second, func() bool { return w.pool.QueueLen() == 1 })

	clk := clock.NewVirtual(clock.Epoch)
	c, err := New(Config{
		Workers:       []string{s.URL},
		Budget:        1,
		ProbeInterval: 20 * time.Millisecond,
		RPC:           RPCPolicy{MaxAttempts: 1},
		Clock:         clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 4
	done := make(chan error, 1)
	var res any
	go func() {
		var err error
		res, err = c.Run("remotetest-count", skandium.Params{"n": n})
		done <- err
	}()
	waitCond(t, "three shed batches", 10*time.Second, func() bool { return w.Shed() >= 3 })
	close(gate)
	for range 2 {
		if err := <-filled; err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if res != gridSum(n) {
		t.Fatalf("result %v, want %d", res, gridSum(n))
	}
	if got := countInvocations.Load(); got != n {
		t.Fatalf("muscle invoked %d times for %d tasks, want each once", got, n)
	}
	shed := w.Shed()
	if got, want := clk.Now().Sub(clock.Epoch), time.Duration(shed)*time.Second; got != want {
		t.Fatalf("the coordinator slept %v for %d shed batches, want the 1s Retry-After each: %v", got, shed, want)
	}
}

// TestEligibleAndShardable: the daemon routes a job to the cluster when its
// blueprint declares a remote codec and its program has a top-level fan-out.
func TestEligibleAndShardable(t *testing.T) {
	for _, tc := range []struct {
		name      string
		codec     bool
		shardable bool
	}{
		{"remotetest-grid", true, true},
		{"remotetest-local", false, false},
	} {
		bp, ok := skandium.LookupBlueprint(tc.name)
		if !ok {
			t.Fatalf("%s not registered", tc.name)
		}
		runner, err := bp.Build(skandium.Params{})
		if err != nil {
			t.Fatal(err)
		}
		prog, err := plan.Of(runner.Node())
		if err != nil {
			t.Fatal(err)
		}
		if codec := bp.Remote != nil; codec != tc.codec {
			t.Errorf("%s: codec %v, want %v", tc.name, codec, tc.codec)
		}
		if sh := Shardable(prog) != nil; sh != tc.shardable {
			t.Errorf("%s: shardable %v, want %v", tc.name, sh, tc.shardable)
		}
	}
}

// TestShardableOnOptimizedProgram: the coordinator shards the cached program
// plan.Of returns, so shard-shape detection must find the same fan-out step —
// at pre-order index 1, through the farm — on it and on a freshly compiled
// program of one farm(map) blueprint.
func TestShardableOnOptimizedProgram(t *testing.T) {
	fs := muscle.NewSplit("cells", func(p any) ([]any, error) { return []any{p}, nil })
	fe := muscle.NewExecute("cell", func(p any) (any, error) { return p, nil })
	fm := muscle.NewMerge("sum", func(ps []any) (any, error) { return ps[0], nil })
	nd := skel.NewFarm(skel.NewMap(fs, skel.NewSeq(fe), fm))

	fresh, err := plan.Compile(nd)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := plan.Of(nd)
	if err != nil {
		t.Fatal(err)
	}
	for name, prog := range map[string]*plan.Program{"compiled": fresh, "cached": cached} {
		if fan := Shardable(prog); fan == nil || fan.Op() != plan.OpFanOut || fan.Index() != 1 {
			t.Fatalf("Shardable(%s) = %v, want the fan-out step #1", name, fan)
		}
	}
}

// TestClusterRepushesGrantAfterRestart: a worker that dies and comes back
// at its own default LP must receive its grant again, even when the
// arbiter re-divides to the identical value — the dedup cache must not
// swallow the re-push.
func TestClusterRepushesGrantAfterRestart(t *testing.T) {
	serve := func(w *Worker) (*http.Server, string, func()) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := &http.Server{Handler: w.Handler()}
		go srv.Serve(ln)
		return srv, ln.Addr().String(), func() { srv.Close(); ln.Close() }
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// The worker starts above the idle grant (demand floors at 1), so the
	// arbiter's push is observable as LP 3 → 1.
	w1 := NewWorker(WorkerConfig{LP: 3, MaxLP: 8})
	defer w1.Close()
	_, addr, stop := serve(w1)
	c, err := New(Config{
		Workers:       []string{addr},
		Budget:        5,
		ProbeInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitFor("initial grant on the worker pool", func() bool { return w1.Report().LP == 1 })

	stop()
	waitFor("node marked down", func() bool { return c.Healthy() == 0 })

	// Same address, fresh process, back at its default LP 3. The arbiter
	// re-divides to the identical grant of 1 — it must still be pushed.
	w2 := NewWorker(WorkerConfig{LP: 3, MaxLP: 8})
	defer w2.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			srv := &http.Server{Handler: w2.Handler()}
			go srv.Serve(ln)
			defer func() { srv.Close(); ln.Close() }()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	waitFor("grant re-pushed to the restarted worker", func() bool { return w2.Report().LP == 1 })
}

// TestClusterRaisesGrantAtDispatch: a job that takes the cluster raises
// every node to its share at once, so even a flat fan-out whose batches
// never show a probe more work than the grant runs grant-sized batches
// from the first one. No probe runs during the test.
func TestClusterRaisesGrantAtDispatch(t *testing.T) {
	w1, s1 := newTestWorker(t, WorkerConfig{LP: 1, MaxLP: 8})
	w2, s2 := newTestWorker(t, WorkerConfig{LP: 1, MaxLP: 8})
	c, err := New(Config{Workers: []string{s1.URL, s2.URL}, Budget: 8, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 32
	start := time.Now()
	res, err := c.Run("remotetest-grid", skandium.Params{"n": n, "sleep_ms": 10})
	took := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if res != gridSum(n) {
		t.Fatalf("result %v, want %d", res, gridSum(n))
	}
	for i, w := range []*Worker{w1, w2} {
		waitCond(t, fmt.Sprintf("worker %d at its share of 4", i), 2*time.Second,
			func() bool { return w.Report().LP == 4 })
	}
	// 32 cells of 10 ms on 2×4 slots is 40 ms of sleeping; at a grant of 1
	// per node it is 160 ms.
	if took >= 100*time.Millisecond {
		t.Fatalf("job took %v, want < 100ms at grant 4 per node", took)
	}
}

// TestClusterGrantHoldsWhileDispatching: while a job holds the cluster no
// probe shrinks a node's grant, however often it finds the node idle or
// short of work — here every 5 ms, across five nested jobs.
func TestClusterGrantHoldsWhileDispatching(t *testing.T) {
	_, s1 := newTestWorker(t, WorkerConfig{LP: 1, MaxLP: 8})
	_, s2 := newTestWorker(t, WorkerConfig{LP: 1, MaxLP: 8})
	c, err := New(Config{Workers: []string{s1.URL, s2.URL}, Budget: 8, ProbeInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const k, m = 16, 4
	for job := 0; job < 5; job++ {
		resetCellSpan()
		res, err := c.Run("remotetest-nested", skandium.Params{"k": k, "m": m, "sleep_ms": 10})
		if err != nil {
			t.Fatal(err)
		}
		if res != gridSum(k*m) {
			t.Fatalf("job %d: result %v, want %d", job, res, gridSum(k*m))
		}
		cellSpan.Lock()
		first, last := cellSpan.first, cellSpan.last
		cellSpan.Unlock()
		// Cells run only between the job taking the cluster and returning.
		for _, d := range c.arb.Decisions() {
			if d.NewLP < d.OldLP && !d.Time.Before(first) && !d.Time.After(last) {
				t.Errorf("job %d: grant shrunk mid-job: %v", job, d)
			}
		}
	}
}

// lpDelay holds the first POST /lp back for delay: it closes sent when
// that request reaches the transport and landed once the worker has
// answered it.
type lpDelay struct {
	delay        time.Duration
	once         sync.Once
	sent, landed chan struct{}
}

func (h *lpDelay) RoundTrip(r *http.Request) (*http.Response, error) {
	first := false
	if r.Method == http.MethodPost && r.URL.Path == "/lp" {
		h.once.Do(func() { first = true })
	}
	if !first {
		return http.DefaultTransport.RoundTrip(r)
	}
	close(h.sent)
	time.Sleep(h.delay)
	defer close(h.landed)
	return http.DefaultTransport.RoundTrip(r)
}

// TestClusterGrantPushesLandInOrder: two grants in a row reach the worker
// in order, even when the first push is slow, and the worker ends at the
// second — a shrink that lands after the raise it preceded would leave the
// worker running grant-sized batches at the old LP.
func TestClusterGrantPushesLandInOrder(t *testing.T) {
	w, s := newTestWorker(t, WorkerConfig{LP: 2, MaxLP: 8})
	slow := &lpDelay{delay: 100 * time.Millisecond, sent: make(chan struct{}), landed: make(chan struct{})}
	// New admits the idle node at a grant of 1; that push is the slow one.
	c, err := New(Config{Workers: []string{s.URL}, Budget: 8, ProbeInterval: time.Hour, Transport: slow})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	waitClosed := func(ch chan struct{}, what string) {
		t.Helper()
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("the slow grant push never %s", what)
		}
	}
	waitClosed(slow.sent, "left the coordinator")
	c.nodes[0].Grant(5)
	waitClosed(slow.landed, "landed")
	waitCond(t, "worker at the second grant", 2*time.Second, func() bool { return w.Report().LP == 5 })
}

// TestClusterCloseReleasesConnections: Close leaves no connection to a
// worker open — neither the keep-alives of the probes, task batches and
// grant pushes, nor one that a grant push in flight at Close, or a grant
// arriving after it, would reopen. The workers' listeners count them.
func TestClusterCloseReleasesConnections(t *testing.T) {
	var open atomic.Int64
	lpArrived := make(chan struct{}, 16)
	var urls []string
	for i := 0; i < 2; i++ {
		w := NewWorker(WorkerConfig{LP: 2, MaxLP: 4})
		h := w.Handler()
		srv := httptest.NewUnstartedServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/lp" {
				lpArrived <- struct{}{}
				time.Sleep(50 * time.Millisecond) // the push is in flight meanwhile
			}
			h.ServeHTTP(rw, r)
		}))
		srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
			switch st {
			case http.StateNew:
				open.Add(1)
			case http.StateClosed, http.StateHijacked:
				open.Add(-1)
			}
		}
		srv.Start()
		t.Cleanup(func() { srv.Close(); w.Close() })
		urls = append(urls, srv.URL)
	}
	c, err := New(Config{Workers: urls, Budget: 4, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := c.Run("remotetest-grid", skandium.Params{"n": 8}); err != nil || res != gridSum(8) {
		t.Fatalf("result %v, %v; want %d", res, err, gridSum(8))
	}
	// Let the pushes of the run land, then close with one in flight.
	waitCond(t, "the run's grant pushes landed", 2*time.Second, func() bool {
		for _, n := range c.nodes {
			n.pushMu.Lock()
			busy := n.pushing
			n.pushMu.Unlock()
			if busy {
				return false
			}
		}
		return true
	})
	for len(lpArrived) > 0 {
		<-lpArrived
	}
	n := c.nodes[0]
	n.Grant(int(n.grant.Load()) + 1)
	select {
	case <-lpArrived:
	case <-time.After(2 * time.Second):
		t.Fatal("the grant push never reached the worker")
	}
	c.Close()
	n.Grant(int(n.grant.Load()) + 1) // a rebalance racing Close
	waitCond(t, "every worker connection closed", 2*time.Second, func() bool { return open.Load() == 0 })
}

// workerProc is one re-exec'd skelworker process (see TestMain).
type workerProc struct {
	addr string
	url  string
	cmd  *exec.Cmd
}

func startWorkerProc(t *testing.T) *workerProc {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "SKELWORKER_TEST_ADDR="+addr)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &workerProc{addr: addr, url: "http://" + addr, cmd: cmd}
	t.Cleanup(func() {
		if p.cmd.Process != nil {
			_ = p.cmd.Process.Kill()
			_, _ = p.cmd.Process.Wait()
		}
	})
	// Wait for the worker to serve.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(p.url + "/healthz")
		if err == nil {
			var h HealthResponse
			ok := json.NewDecoder(resp.Body).Decode(&h) == nil && h.OK
			resp.Body.Close()
			if ok {
				return p
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("worker on %s never became healthy", addr)
	return nil
}

// TestClusterSurvivesWorkerSIGKILL is the acceptance test: a 2-worker
// cluster of real processes completes a farm job end-to-end with muscles
// resolved by registry name, one worker is SIGKILLed mid-job, the
// coordinator rebalances the lost tasks onto the survivor, and Σ per-node
// grants never exceeds the cluster budget.
func TestClusterSurvivesWorkerSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process acceptance test")
	}
	w1 := startWorkerProc(t)
	w2 := startWorkerProc(t)

	var evMu sync.Mutex
	var events []NodeEvent
	c, err := New(Config{
		Workers:       []string{w1.addr, w2.addr},
		Budget:        4,
		ProbeInterval: 50 * time.Millisecond,
		OnNodeEvent: func(ev NodeEvent) {
			evMu.Lock()
			events = append(events, ev)
			evMu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.Healthy(); got != 2 {
		t.Fatalf("healthy workers %d, want 2", got)
	}

	// Budget invariant, sampled concurrently with the run.
	stopSampling := make(chan struct{})
	var sampleWG sync.WaitGroup
	var budgetViolation error
	sampleWG.Add(1)
	go func() {
		defer sampleWG.Done()
		for {
			select {
			case <-stopSampling:
				return
			case <-time.After(20 * time.Millisecond):
				if g, b := c.Granted(), c.Budget(); g > b {
					budgetViolation = fmt.Errorf("Σ grants %d exceeds budget %d", g, b)
					return
				}
			}
		}
	}()

	// 24 cells × 150ms over 2 workers (2 LP each) keeps the job running
	// well past the kill below.
	kill := time.AfterFunc(400*time.Millisecond, func() {
		_ = w2.cmd.Process.Kill()
	})
	defer kill.Stop()

	const n = 24
	res, err := c.Run("remotetest-grid", skandium.Params{"n": n, "sleep_ms": 150})
	close(stopSampling)
	sampleWG.Wait()
	if err != nil {
		t.Fatalf("job failed despite a surviving worker: %v", err)
	}
	if res != gridSum(n) {
		t.Fatalf("result %v, want %d — tasks lost in the rebalance", res, gridSum(n))
	}
	if budgetViolation != nil {
		t.Fatal(budgetViolation)
	}

	// The coordinator noticed the loss and released the node.
	evMu.Lock()
	sawDown := false
	for _, ev := range events {
		if !ev.Up && strings.Contains(ev.Addr, w2.addr) {
			sawDown = true
		}
	}
	evMu.Unlock()
	if !sawDown {
		t.Fatal("no node-down event for the SIGKILLed worker")
	}
	for _, st := range c.Nodes() {
		if strings.Contains(st.Addr, w2.addr) && st.Healthy {
			t.Fatal("SIGKILLed worker still marked healthy")
		}
	}
	if c.Granted() > c.Budget() {
		t.Fatalf("granted %d exceeds budget %d after node loss", c.Granted(), c.Budget())
	}
}
