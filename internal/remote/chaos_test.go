package remote

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skandium"
	"skandium/internal/chaos"
)

// countInvocations tallies every execution of the counting blueprint's cell
// muscle across all in-process workers sharing this test binary — the
// ground truth the exactly-once assertions compare against.
var countInvocations atomic.Int64

func init() {
	skandium.RegisterBlueprint(skandium.Blueprint{
		Name:        "remotetest-count",
		Description: "farm(map) of counting square cells, for exactly-once chaos tests",
		Defaults:    skandium.Params{"n": 8, "sleep_ms": 0},
		Remote:      skandium.JSONCodec[gridCell, int](),
		Build: func(p skandium.Params) (skandium.Runner, error) {
			n := p.Int("n", 8)
			sleep := p.Int("sleep_ms", 0)
			fs := skandium.NewSplit("cells", func(total int) ([]gridCell, error) {
				out := make([]gridCell, total)
				for i := range out {
					out[i] = gridCell{N: i, SleepMS: sleep}
				}
				return out, nil
			})
			fe := skandium.NewExec("countsquare", func(c gridCell) (int, error) {
				countInvocations.Add(1)
				if c.SleepMS > 0 {
					time.Sleep(time.Duration(c.SleepMS) * time.Millisecond)
				}
				return c.N * c.N, nil
			})
			fm := skandium.NewMerge("sum", func(parts []int) (int, error) {
				s := 0
				for _, v := range parts {
					s += v
				}
				return s, nil
			})
			return skandium.NewRunner(skandium.Farm(skandium.Map(fs, skandium.Seq(fe), fm)), n), nil
		},
	})
}

// eventLog collects node transitions thread-safely.
type eventLog struct {
	mu  sync.Mutex
	evs []NodeEvent
}

func (l *eventLog) add(ev NodeEvent) {
	l.mu.Lock()
	l.evs = append(l.evs, ev)
	l.mu.Unlock()
}

func (l *eventLog) snapshot() []NodeEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]NodeEvent(nil), l.evs...)
}

func (l *eventLog) has(pred func(NodeEvent) bool) bool {
	for _, ev := range l.snapshot() {
		if pred(ev) {
			return true
		}
	}
	return false
}

func waitCond(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClusterExactlyOnceUnderChaos is the acceptance scenario: a seeded
// chaos run with 20% RPC drops plus one partition/heal cycle must complete
// the job with every muscle invoked exactly once, and the node's
// down → probation → healthy transitions must show up in the event stream.
// Dropped requests never reach the worker (refused — the unambiguous
// failure), so the RPC retry layer and requeue-on-node-loss must account
// for every task exactly once with no dedup help needed.
func TestClusterExactlyOnceUnderChaos(t *testing.T) {
	countInvocations.Store(0)
	_, s1 := newTestWorker(t, WorkerConfig{LP: 2, MaxLP: 4})
	_, s2 := newTestWorker(t, WorkerConfig{LP: 2, MaxLP: 4})

	inj := chaos.NewNet(chaos.NetConfig{Seed: 12345, DropRate: 0.2})
	var log eventLog
	c, err := New(Config{
		Workers:       []string{s1.URL, s2.URL},
		Budget:        4,
		ProbeInterval: 20 * time.Millisecond,
		HTTPTimeout:   5 * time.Second,
		RPC:           RPCPolicy{MaxAttempts: 4, BaseDelay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond, Seed: 7},
		Transport:     inj.Transport(nil),
		// The invocation-count assertion must not race a local drain pool
		// (a locally re-executed ambiguous task would be a false positive).
		NoDegrade:   true,
		OnNodeEvent: log.add,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// One partition/heal cycle on worker 1, long enough for the failure
	// streak to retire the node mid-job.
	cutHost := strings.TrimPrefix(s1.URL, "http://")
	time.AfterFunc(50*time.Millisecond, func() { inj.Partition(cutHost) })
	time.AfterFunc(500*time.Millisecond, func() { inj.Heal(cutHost) })

	const n = 40
	res, err := c.Run("remotetest-count", skandium.Params{"n": n, "sleep_ms": 10})
	if err != nil {
		t.Fatalf("job failed under chaos: %v", err)
	}
	want := 0
	for i := 0; i < n; i++ {
		want += i * i
	}
	if res != want {
		t.Fatalf("result %v, want %d — a task was lost or double-merged", res, want)
	}
	if got := countInvocations.Load(); got != n {
		t.Fatalf("muscle invoked %d times for %d tasks — exactly-once violated", got, n)
	}

	// The partitioned node must have been retired with a classified cause...
	waitCond(t, "node-down transition in the event stream", 5*time.Second, func() bool {
		return log.has(func(ev NodeEvent) bool {
			return ev.To == StateDown && ev.Cause != "" && strings.Contains(ev.Addr, cutHost)
		})
	})
	// ...and re-admitted through probation after the heal.
	waitCond(t, "probation re-admission after heal", 5*time.Second, func() bool {
		return log.has(func(ev NodeEvent) bool {
			return ev.From == StateDown && ev.To == StateProbation && strings.Contains(ev.Addr, cutHost)
		})
	})
	waitCond(t, "both nodes healthy again", 5*time.Second, func() bool { return c.Healthy() == 2 })
	if st := inj.NetStats(); st.Drops == 0 || st.PartitionDrops == 0 {
		t.Fatalf("chaos did not bite: %+v", st)
	}
}

// TestClusterDedupAbsorbsAmbiguousReplays: reply drops are the ambiguous
// failure — the worker executed, the coordinator saw a timeout. The RPC
// layer replays against the same node and the worker's per-(job,seq) dedup
// slots must absorb every replay: the muscle count stays exact.
func TestClusterDedupAbsorbsAmbiguousReplays(t *testing.T) {
	countInvocations.Store(0)
	w, s := newTestWorker(t, WorkerConfig{LP: 2, MaxLP: 4})

	inj := chaos.NewNet(chaos.NetConfig{Seed: 4242, DropReplyRate: 0.4})
	c, err := New(Config{
		Workers:       []string{s.URL},
		Budget:        4,
		ProbeInterval: 20 * time.Millisecond,
		HTTPTimeout:   5 * time.Second,
		RPC:           RPCPolicy{MaxAttempts: 20, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond, Seed: 7},
		Transport:     inj.Transport(nil),
		NoDegrade:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 40
	res, err := c.Run("remotetest-count", skandium.Params{"n": n})
	if err != nil {
		t.Fatalf("job failed under reply-drop chaos: %v", err)
	}
	want := 0
	for i := 0; i < n; i++ {
		want += i * i
	}
	if res != want {
		t.Fatalf("result %v, want %d", res, want)
	}
	if got := countInvocations.Load(); got != n {
		t.Fatalf("muscle invoked %d times for %d tasks — worker dedup failed to absorb a replay", got, n)
	}
	if st := inj.NetStats(); st.ReplyDrops == 0 {
		t.Fatalf("chaos did not bite: %+v", st)
	}
	if w.Deduped() == 0 {
		t.Fatal("no replay hit the dedup cache despite dropped replies")
	}
}

// TestClusterProbationReadmission: a node that dies and returns re-earns
// trust through probation — with its arbiter share capped — before being
// promoted back to healthy. Runs the full real-HTTP path under -race.
func TestClusterProbationReadmission(t *testing.T) {
	w1 := NewWorker(WorkerConfig{LP: 2, MaxLP: 4})
	defer w1.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	srv := &http.Server{Handler: w1.Handler()}
	go srv.Serve(ln)

	var log eventLog
	c, err := New(Config{
		Workers:       []string{addr},
		Budget:        8,
		ProbeInterval: 20 * time.Millisecond,
		Health:        HealthConfig{ProbationProbes: 4, ProbationCap: 1},
		OnNodeEvent:   log.add,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	srv.Close()
	ln.Close()
	waitCond(t, "node down after listener close", 5*time.Second, func() bool {
		return log.has(func(ev NodeEvent) bool { return ev.To == StateDown })
	})
	if c.Serving() != 0 {
		t.Fatalf("down node still counted as serving")
	}

	// Same address, fresh process.
	w2 := NewWorker(WorkerConfig{LP: 3, MaxLP: 8})
	defer w2.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	srv2 := &http.Server{Handler: w2.Handler()}
	go srv2.Serve(ln)
	defer func() { srv2.Close(); ln.Close() }()

	waitCond(t, "down→probation transition", 5*time.Second, func() bool {
		return log.has(func(ev NodeEvent) bool { return ev.From == StateDown && ev.To == StateProbation })
	})
	// While on probation the node's arbiter share is clamped to the
	// probation cap even though its pool could employ more.
	for _, n := range c.Nodes() {
		if n.State == "probation" && n.Grant > 1 {
			t.Fatalf("probation node granted %d, want <= cap of 1", n.Grant)
		}
	}
	waitCond(t, "probation→healthy promotion", 5*time.Second, func() bool {
		return log.has(func(ev NodeEvent) bool { return ev.From == StateProbation && ev.To == StateHealthy })
	})
	waitCond(t, "healthy count restored", 5*time.Second, func() bool { return c.Healthy() == 1 })
}

// TestWorkerAdmissionControl: a batch that would overflow the bounded task
// queue is shed atomically with 429 + Retry-After — nothing executes — and
// replays of known seqs are never shed, so a saturated worker still drains
// coordinator ambiguity.
func TestWorkerAdmissionControl(t *testing.T) {
	countInvocations.Store(0)
	w, s := newTestWorker(t, WorkerConfig{LP: 1, MaxQueue: 2})
	code, pr := postProgram(t, s.URL, ProgramRequest{
		Blueprint: "remotetest-count",
		Params:    map[string]any{"n": 8},
		Step:      1,
		Job:       "job-adm",
	})
	if code != http.StatusOK || !pr.OK {
		t.Fatalf("program load: %d %+v", code, pr)
	}

	postBatch := func(seqs ...int) (*http.Response, []TaskResponse) {
		t.Helper()
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, seq := range seqs {
			part, _ := json.Marshal(gridCell{N: seq})
			if err := enc.Encode(TaskRequest{Seq: seq, Part: part, Job: "job-adm"}); err != nil {
				t.Fatal(err)
			}
		}
		resp, err := http.Post(s.URL+"/tasks", "application/x-ndjson", &buf)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out []TaskResponse
		dec := json.NewDecoder(resp.Body)
		for {
			var tr TaskResponse
			if err := dec.Decode(&tr); err != nil {
				break
			}
			out = append(out, tr)
		}
		return resp, out
	}

	// 6 fresh tasks > MaxQueue 2: shed atomically, nothing executed.
	resp, rs := postBatch(0, 1, 2, 3, 4, 5)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("oversized batch got %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 must carry a Retry-After hint")
	}
	if len(rs) != 1 || rs[0].Seq != -1 || !strings.Contains(rs[0].Error, "saturated") {
		t.Fatalf("shed reply %+v, want a single seq=-1 saturation error", rs)
	}
	if got := countInvocations.Load(); got != 0 {
		t.Fatalf("shed batch executed %d muscles, want 0 — admission must be atomic", got)
	}
	if w.Shed() != 1 {
		t.Fatalf("shed counter %d, want 1", w.Shed())
	}

	// A batch within the bound executes.
	resp, rs = postBatch(0, 1)
	if resp.StatusCode != http.StatusOK || len(rs) != 2 {
		t.Fatalf("in-bound batch: %d, %d replies", resp.StatusCode, len(rs))
	}
	if got := countInvocations.Load(); got != 2 {
		t.Fatalf("invocations %d, want 2", got)
	}

	// Replaying known seqs adds no load: never shed, served from the cache.
	resp, rs = postBatch(0, 1)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replay got %d, want 200 — replays must never be shed", resp.StatusCode)
	}
	if got := countInvocations.Load(); got != 2 {
		t.Fatalf("replay re-executed muscles: %d invocations, want still 2", got)
	}
	if w.Deduped() != 2 {
		t.Fatalf("deduped %d, want 2", w.Deduped())
	}
}

// TestWorkerJobFencing: batches are fenced to their job epoch — a stale
// epoch is rejected with 409 and executes nothing; a new epoch resets the
// dedup slots so the same seq runs fresh.
func TestWorkerJobFencing(t *testing.T) {
	countInvocations.Store(0)
	_, s := newTestWorker(t, WorkerConfig{LP: 1})
	load := func(job string) {
		t.Helper()
		code, pr := postProgram(t, s.URL, ProgramRequest{
			Blueprint: "remotetest-count", Params: map[string]any{"n": 4}, Step: 1, Job: job,
		})
		if code != http.StatusOK || !pr.OK {
			t.Fatalf("program load: %d %+v", code, pr)
		}
	}
	post := func(job string, seq int) int {
		t.Helper()
		part, _ := json.Marshal(gridCell{N: seq})
		var buf bytes.Buffer
		_ = json.NewEncoder(&buf).Encode(TaskRequest{Seq: seq, Part: part, Job: job})
		resp, err := http.Post(s.URL+"/tasks", "application/x-ndjson", &buf)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	load("epoch-1")
	if code := post("epoch-0", 0); code != http.StatusConflict {
		t.Fatalf("stale epoch got %d, want 409", code)
	}
	if countInvocations.Load() != 0 {
		t.Fatal("fenced batch must execute nothing")
	}
	if code := post("epoch-1", 0); code != http.StatusOK {
		t.Fatalf("current epoch got %d, want 200", code)
	}
	if countInvocations.Load() != 1 {
		t.Fatalf("invocations %d, want 1", countInvocations.Load())
	}
	// Re-loading the same epoch preserves dedup state...
	load("epoch-1")
	if code := post("epoch-1", 0); code != http.StatusOK {
		t.Fatal("replay after same-epoch reload must serve from cache")
	}
	if countInvocations.Load() != 1 {
		t.Fatalf("same-epoch reload lost dedup state: %d invocations", countInvocations.Load())
	}
	// ...and a new epoch resets it.
	load("epoch-2")
	if code := post("epoch-2", 0); code != http.StatusOK {
		t.Fatal("fresh epoch post failed")
	}
	if countInvocations.Load() != 2 {
		t.Fatalf("new epoch must re-execute: %d invocations, want 2", countInvocations.Load())
	}
}

// TestClusterHedgesStragglers: a node that accepts a batch and then stalls
// forever must not stall the job — after HedgeAfter the claimed tasks are
// re-enqueued and a healthy node races them to completion.
func TestClusterHedgesStragglers(t *testing.T) {
	countInvocations.Store(0)
	_, good := newTestWorker(t, WorkerConfig{LP: 2, MaxLP: 4})

	// A black-hole worker: loads programs, reports healthy, accepts task
	// batches and never replies.
	hang := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"ok":true,"lp":1,"active":0,"queued":0,"max_lp":1}`)
	})
	mux.HandleFunc("POST /program", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"ok":true,"program":"farm(map)"}`)
	})
	mux.HandleFunc("POST /lp", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"lp":1}`)
	})
	mux.HandleFunc("POST /tasks", func(w http.ResponseWriter, r *http.Request) {
		<-hang
	})
	stall := httptest.NewServer(mux)
	// Unblock the black-hole handler before the server's Close waits for
	// outstanding requests to drain (defers run LIFO).
	defer stall.Close()
	defer close(hang)

	c, err := New(Config{
		Workers:       []string{good.URL, stall.URL},
		Budget:        8,
		ProbeInterval: 20 * time.Millisecond,
		HTTPTimeout:   30 * time.Second, // the stall must outlive the job
		HedgeAfter:    100 * time.Millisecond,
		NoDegrade:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 12
	done := make(chan struct{})
	var res any
	var runErr error
	go func() {
		res, runErr = c.Run("remotetest-count", skandium.Params{"n": n, "sleep_ms": 5})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("job stalled behind the black-hole worker despite hedging")
	}
	if runErr != nil {
		t.Fatalf("job failed: %v", runErr)
	}
	want := 0
	for i := 0; i < n; i++ {
		want += i * i
	}
	if res != want {
		t.Fatalf("result %v, want %d", res, want)
	}
	if c.Hedged() == 0 {
		t.Fatal("no task was hedged despite a stalled claim")
	}
}

// TestClusterHedgesStragglersUncapped is TestClusterHedgesStragglers beside
// an uncapped good worker (skelworker's default -max-lp 0). During the job
// that worker asks for the whole budget, so Σ grants equals the budget and
// the cluster never has grant slack; the straggler must still be hedged
// once every shard is claimed.
func TestClusterHedgesStragglersUncapped(t *testing.T) {
	_, good := newTestWorker(t, WorkerConfig{LP: 2})
	hang := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"ok":true,"lp":1,"active":0,"queued":0,"max_lp":1}`)
	})
	mux.HandleFunc("POST /program", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"ok":true,"program":"farm(map)"}`)
	})
	mux.HandleFunc("POST /lp", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"lp":1}`)
	})
	mux.HandleFunc("POST /tasks", func(w http.ResponseWriter, r *http.Request) {
		<-hang
	})
	stall := httptest.NewServer(mux)
	defer stall.Close()
	defer close(hang)

	c, err := New(Config{
		Workers:       []string{good.URL, stall.URL},
		Budget:        8,
		ProbeInterval: 20 * time.Millisecond,
		HTTPTimeout:   30 * time.Second,
		HedgeAfter:    100 * time.Millisecond,
		NoDegrade:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 12
	done := make(chan error, 1)
	go func() {
		res, err := c.Run("remotetest-grid", skandium.Params{"n": n, "sleep_ms": 5})
		if err == nil && res != gridSum(n) {
			err = fmt.Errorf("result %v, want %d", res, gridSum(n))
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("job stalled behind the black-hole worker: %d of budget %d granted, %d hedged",
			c.Granted(), c.Budget(), c.Hedged())
	}
	if c.Hedged() == 0 {
		t.Fatal("no task was hedged despite a stalled claim")
	}
}

// TestClusterDegradesToLocalPool: when the whole cluster browns out mid-job
// the remaining shards drain to the local pool instead of failing the job.
func TestClusterDegradesToLocalPool(t *testing.T) {
	w, s := newTestWorker(t, WorkerConfig{LP: 2, MaxLP: 4})
	_ = w

	var log eventLog
	c, err := New(Config{
		Workers:       []string{s.URL},
		Budget:        4,
		ProbeInterval: 20 * time.Millisecond,
		HTTPTimeout:   time.Second,
		RPC:           RPCPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
		OnNodeEvent:   log.add,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Kill the only worker shortly after the job starts.
	time.AfterFunc(60*time.Millisecond, s.CloseClientConnections)
	time.AfterFunc(70*time.Millisecond, s.Close)

	const n = 24
	res, err := c.Run("remotetest-grid", skandium.Params{"n": n, "sleep_ms": 20})
	if err != nil {
		t.Fatalf("job failed despite local degradation: %v", err)
	}
	if res != gridSum(n) {
		t.Fatalf("result %v, want %d", res, gridSum(n))
	}
	if c.Degraded() == 0 {
		t.Fatal("no task drained to the local pool")
	}
	if !log.has(func(ev NodeEvent) bool { return ev.Cause == "degrade" }) {
		t.Fatal("degradation must be announced in the event stream")
	}
}
