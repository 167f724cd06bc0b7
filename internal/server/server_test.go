package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"skandium"
)

// newTestDaemon boots a server on a loopback port via httptest.
func newTestDaemon(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	_, _ = out.ReadFrom(resp.Body)
	return resp, out.Bytes()
}

func getJSON[T any](t *testing.T, url string) T {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
	return v
}

func getNDJSON(t *testing.T, url string) []map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	var out []map[string]any
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("GET %s: bad NDJSON line %q: %v", url, line, err)
		}
		out = append(out, m)
	}
	return out
}

func submitSleepgrid(t *testing.T, base string, goalMS float64, cellMS float64) jobView {
	t.Helper()
	resp, body := postJSON(t, base+"/jobs", map[string]any{
		"skeleton": "sleepgrid",
		"params":   map[string]any{"k": 4, "m": 4, "cell_ms": cellMS},
		"goal_ms":  goalMS,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	var v jobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("submit: decode %q: %v", body, err)
	}
	return v
}

// TestServerEndToEnd is the acceptance scenario: boot the daemon on a
// loopback port, submit three concurrent jobs with different WCT goals,
// watch the per-job LP allocations shift through the API while their sum
// never exceeds the global budget, and confirm every job completes with a
// recorded decision timeline.
func TestServerEndToEnd(t *testing.T) {
	const budget = 6
	srv, ts := newTestDaemon(t, Config{
		Budget:           budget,
		Rebalance:        5 * time.Millisecond,
		AnalysisTick:     2 * time.Millisecond,
		AnalysisInterval: time.Millisecond,
	})
	base := ts.URL

	// Three 4×4 sleep grids (~128ms serial work each): one with a goal it
	// badly misses, one moderate, one with all the slack in the world.
	severe := submitSleepgrid(t, base, 40, 8)
	medium := submitSleepgrid(t, base, 90, 8)
	slack := submitSleepgrid(t, base, 5000, 8)
	ids := []string{severe.ID, medium.ID, slack.ID}

	grantsSeen := map[string]map[int]bool{}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("jobs did not finish; last states: %+v", getJSON[[]jobView](t, base+"/jobs"))
		}

		// The arbiter's own accounting is atomic: never over budget.
		arb := getJSON[arbiterView](t, base+"/arbiter")
		if arb.Granted > budget {
			t.Fatalf("arbiter granted %d > budget %d", arb.Granted, budget)
		}
		for id, g := range arb.Grants {
			if grantsSeen[id] == nil {
				grantsSeen[id] = map[int]bool{}
			}
			grantsSeen[id][g] = true
		}

		// The per-job pool LPs must respect the grants. A job can finish
		// between two reads of this non-atomic listing (its budget already
		// re-granted while it still lists as running), so re-check before
		// calling a violation real.
		sumLP, done := runningLPSum(t, base)
		if sumLP > budget {
			if s2, _ := runningLPSum(t, base); s2 > budget {
				t.Fatalf("sum of running-job LPs %d then %d > budget %d", sumLP, s2, budget)
			}
		}
		if done == len(ids) {
			break
		}
		time.Sleep(3 * time.Millisecond)
	}

	jobs := map[string]jobView{}
	for _, v := range getJSON[[]jobView](t, base+"/jobs") {
		jobs[v.ID] = v
	}
	for _, id := range ids {
		v, ok := jobs[id]
		if !ok {
			t.Fatalf("job %s missing from listing", id)
		}
		if v.State != "done" {
			t.Errorf("job %s state = %s (err %q), want done", id, v.State, v.Error)
		}
		if v.Result != "16" { // 4×4 cells, each counted once
			t.Errorf("job %s result = %q, want 16", id, v.Result)
		}
	}

	// The allocations changed over time: the goal-missing job must have been
	// granted at least two distinct LP shares (it starts at 1 and is raised
	// once its controller publishes a demand).
	if n := len(grantsSeen[severe.ID]); n < 2 {
		t.Errorf("severe job saw %d distinct grants %v, want >= 2", n, grantsSeen[severe.ID])
	}

	// The goal-missing job recorded an autonomic decision timeline.
	decs := getJSON[[]decisionView](t, base+"/jobs/"+severe.ID+"/decisions")
	if len(decs) == 0 {
		t.Errorf("severe job has no decisions")
	}

	// The timeline endpoint interleaves LP samples and decisions as NDJSON.
	timeline := getNDJSON(t, base+"/jobs/"+severe.ID+"/timeline")
	kinds := map[string]int{}
	for _, rec := range timeline {
		kinds[rec["type"].(string)]++
	}
	if kinds["lp"] == 0 || kinds["decision"] == 0 {
		t.Errorf("timeline kinds = %v, want both lp and decision records", kinds)
	}

	// The event stream replays the job's history in ∆@notation.
	events := getNDJSON(t, base+"/jobs/"+severe.ID+"/events")
	if len(events) == 0 {
		t.Fatalf("no events for %s", severe.ID)
	}
	if ev := events[0]["ev"].(string); !strings.Contains(ev, "map@") {
		t.Errorf("first event = %q, want a map@ activation", ev)
	}

	// Fleet metrics and health.
	health := getJSON[map[string]any](t, base+"/healthz")
	if health["status"] != "ok" {
		t.Errorf("health status = %v", health["status"])
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	var mbuf bytes.Buffer
	_, _ = mbuf.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		fmt.Sprintf("skelrund_budget %d", budget),
		"skelrund_job_tasks_total",
		`skelrund_jobs{state="done"} 3`,
	} {
		if !strings.Contains(mbuf.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	_ = srv
}

// runningLPSum reads the job listing once, summing LP over running jobs.
func runningLPSum(t *testing.T, base string) (sum, done int) {
	t.Helper()
	for _, v := range getJSON[[]jobView](t, base+"/jobs") {
		switch v.State {
		case "running":
			sum += v.LP
		case "done", "failed", "canceled":
			done++
		}
	}
	return sum, done
}

// TestSkeletonsCatalog: GET /skeletons lists every registered blueprint in
// name order, each with its description and defaults.
func TestSkeletonsCatalog(t *testing.T) {
	_, ts := newTestDaemon(t, Config{Budget: 1})
	type bpView struct {
		Name        string
		Description string
		Defaults    map[string]any
	}
	got := getJSON[[]bpView](t, ts.URL+"/skeletons")
	want := skandium.Blueprints()
	if len(got) != len(want) {
		t.Fatalf("GET /skeletons lists %d blueprints, want %d", len(got), len(want))
	}
	for i, b := range want {
		g, _ := json.Marshal(got[i].Defaults)
		w, _ := json.Marshal(map[string]any(b.Defaults))
		if got[i].Name != b.Name || got[i].Description != b.Description || (len(b.Defaults) > 0 && string(g) != string(w)) {
			t.Errorf("entry %d = %+v, want %s %q %s", i, got[i], b.Name, b.Description, w)
		}
	}
	for _, bp := range got {
		if bp.Name == "sleepgrid" && fmt.Sprint(bp.Defaults) != "map[cell_ms:5 k:4 m:4]" {
			t.Fatalf("sleepgrid defaults %v", bp.Defaults)
		}
	}
}

// TestServerQueueAdmission: with budget 2 only two jobs run at once; the
// third queues and is admitted when budget returns.
func TestServerQueueAdmission(t *testing.T) {
	_, ts := newTestDaemon(t, Config{Budget: 2, Rebalance: 5 * time.Millisecond})
	base := ts.URL

	a := submitSleepgrid(t, base, 0, 5)
	b := submitSleepgrid(t, base, 0, 5)
	c := submitSleepgrid(t, base, 0, 5)
	if a.State != "running" || b.State != "running" {
		t.Fatalf("first two jobs should start immediately: %s/%s", a.State, b.State)
	}
	if c.State != "queued" {
		t.Fatalf("third job state = %s, want queued (budget full)", c.State)
	}

	deadline := time.Now().Add(20 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("jobs stuck: %+v", getJSON[[]jobView](t, base+"/jobs"))
		}
		_, done := runningLPSum(t, base)
		if done == 3 {
			break
		}
		time.Sleep(3 * time.Millisecond)
	}
	v := getJSON[jobView](t, base+"/jobs/"+c.ID)
	if v.State != "done" || v.StartedMS == 0 {
		t.Fatalf("queued job should have started and finished: %+v", v)
	}
}

// TestServerQoSAndCancel: runtime QoS adjustment is visible through the
// API, an unknown skeleton is rejected, and DELETE cancels a job.
func TestServerQoSAndCancel(t *testing.T) {
	_, ts := newTestDaemon(t, Config{Budget: 4, Rebalance: 5 * time.Millisecond})
	base := ts.URL

	j := submitSleepgrid(t, base, 10000, 25) // slack: ~400ms serial
	req, _ := http.NewRequest(http.MethodPatch, base+"/jobs/"+j.ID+"/qos",
		strings.NewReader(`{"goal_ms": 50, "max_lp": 3}`))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("PATCH qos: %v", err)
	}
	var after jobView
	if err := json.NewDecoder(resp.Body).Decode(&after); err != nil {
		t.Fatalf("decode qos response: %v", err)
	}
	resp.Body.Close()
	if after.GoalMS != 50 || after.MaxLP != 3 {
		t.Fatalf("qos not applied: goal=%v max_lp=%d", after.GoalMS, after.MaxLP)
	}

	del, _ := http.NewRequest(http.MethodDelete, base+"/jobs/"+j.ID, nil)
	if resp, err := http.DefaultClient.Do(del); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE job: %v (%v)", err, resp)
	} else {
		resp.Body.Close()
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		v := getJSON[jobView](t, base+"/jobs/"+j.ID)
		if v.State == "canceled" {
			break
		}
		if v.State == "done" {
			t.Fatalf("job finished before cancel took effect — enlarge the workload")
		}
		if time.Now().After(deadline) {
			t.Fatalf("job not canceled: %+v", v)
		}
		time.Sleep(3 * time.Millisecond)
	}

	if resp, body := postJSON(t, base+"/jobs", map[string]any{"skeleton": "no-such"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown skeleton: status %d body %s", resp.StatusCode, body)
	}
}

// TestServerDrain: draining refuses new submissions with 503 while letting
// running jobs finish; a deadline cancels stragglers.
func TestServerDrain(t *testing.T) {
	srv, ts := newTestDaemon(t, Config{Budget: 4, Rebalance: 5 * time.Millisecond})
	base := ts.URL

	j := submitSleepgrid(t, base, 0, 5) // ~80ms serial at LP 1
	srv.BeginDrain()

	if resp, _ := postJSON(t, base+"/jobs", map[string]any{"skeleton": "sleepgrid"}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain: status %d, want 503", resp.StatusCode)
	}
	health := getJSON[map[string]any](t, base+"/healthz")
	if health["status"] != "draining" {
		t.Fatalf("health status = %v, want draining", health["status"])
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if v := getJSON[jobView](t, base+"/jobs/"+j.ID); v.State != "done" {
		t.Fatalf("drained job state = %s, want done", v.State)
	}
}

// TestServerDrainDeadline: a drain whose context expires cancels the jobs
// that outlived it.
func TestServerDrainDeadline(t *testing.T) {
	srv, ts := newTestDaemon(t, Config{Budget: 2, Rebalance: 5 * time.Millisecond})
	base := ts.URL

	j := submitSleepgrid(t, base, 0, 200) // 16 × 200ms serial: outlives the drain
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Drain(ctx); err != context.DeadlineExceeded {
		t.Fatalf("drain err = %v, want DeadlineExceeded", err)
	}

	deadline := time.Now().Add(15 * time.Second)
	for {
		v := getJSON[jobView](t, base+"/jobs/"+j.ID)
		if v.State == "canceled" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("straggler not canceled: %+v", v)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
