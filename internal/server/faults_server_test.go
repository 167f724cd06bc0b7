package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"
)

func submitChaosgrid(t *testing.T, base string, extra map[string]any) jobView {
	t.Helper()
	body := map[string]any{
		"skeleton": "chaosgrid",
		"params":   map[string]any{"k": 4, "m": 4, "cell_ms": 1, "seed": 3, "fail_rate": 0.25},
	}
	for k, v := range extra {
		body[k] = v
	}
	resp, raw := postJSON(t, base+"/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit chaosgrid: status %d: %s", resp.StatusCode, raw)
	}
	var v jobView
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("submit: decode %q: %v", raw, err)
	}
	return v
}

func waitJob(t *testing.T, base, id string, states ...string) jobView {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		v := getJSON[jobView](t, base+"/jobs/"+id)
		for _, s := range states {
			if v.State == s {
				return v
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want one of %v", id, v.State, states)
		}
		time.Sleep(3 * time.Millisecond)
	}
}

// TestServerChaosgridRetryRecovers: a chaos job submitted with a retry
// budget completes with the full result and its fault counters visible in
// the job view and /metrics.
func TestServerChaosgridRetryRecovers(t *testing.T) {
	_, ts := newTestDaemon(t, Config{Budget: 4, Rebalance: 5 * time.Millisecond})
	base := ts.URL

	j := submitChaosgrid(t, base, map[string]any{"retries": 20})
	if j.RetryAttempts != 20 || j.Partial != "failfast" {
		t.Fatalf("config not echoed: retry_attempts=%d partial=%q", j.RetryAttempts, j.Partial)
	}
	v := waitJob(t, base, j.ID, "done", "failed")
	if v.State != "done" || v.Result != "16" {
		t.Fatalf("job = %s result %q (err %q), want done/16", v.State, v.Result, v.Error)
	}
	if v.Retries == 0 {
		t.Fatalf("retries_total = 0: chaos injected nothing (seed drift?)")
	}
	if v.Faults != 0 {
		t.Fatalf("faults_total = %d, want 0 (all recovered)", v.Faults)
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"skelrund_retries_total", "skelrund_faults_total", "skelrund_job_retries_total"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	assertFleetSumsJobs(t, base, "retries_total", "faults_total")
}

// TestServerChaosgridSkipFailed: under partial=skip the job completes with
// a partial result and the skipped/failed-branch counters agree.
func TestServerChaosgridSkipFailed(t *testing.T) {
	_, ts := newTestDaemon(t, Config{Budget: 4, Rebalance: 5 * time.Millisecond})
	base := ts.URL

	j := submitChaosgrid(t, base, map[string]any{"partial": "skip"})
	if j.Partial != "skip" {
		t.Fatalf("partial = %q, want skip", j.Partial)
	}
	v := waitJob(t, base, j.ID, "done", "failed")
	if v.State != "done" {
		t.Fatalf("job = %s (err %q), want done", v.State, v.Error)
	}
	if v.Skipped == 0 || v.FailedBranches == 0 {
		t.Fatalf("skipped=%d failed_branches=%d: chaos injected nothing", v.Skipped, v.FailedBranches)
	}
	// Each surviving leaf contributes 1 of the 16 cells.
	want := 16 - int(v.Skipped)
	if v.Result != strconv.Itoa(want) {
		t.Fatalf("result = %q, want %d (16 cells - %d skipped)", v.Result, want, v.Skipped)
	}
}

// TestServerChaosgridFailFastRendersError: with no retries and failfast,
// the job fails terminally and the NDJSON event log records the error.
func TestServerChaosgridFailFastRendersError(t *testing.T) {
	_, ts := newTestDaemon(t, Config{Budget: 2, Rebalance: 5 * time.Millisecond})
	base := ts.URL

	j := submitChaosgrid(t, base, nil) // fail_rate 0.25, no retries, failfast
	v := waitJob(t, base, j.ID, "done", "failed")
	if v.State != "failed" {
		t.Fatalf("job = %s, want failed (failfast, no retries)", v.State)
	}
	if !strings.Contains(v.Error, "chaos") {
		t.Fatalf("job error %q does not name the injected fault", v.Error)
	}
	events := getNDJSON(t, base+"/jobs/"+j.ID+"/events")
	var errLines int
	for _, rec := range events {
		if s, ok := rec["err"].(string); ok && s != "" {
			errLines++
		}
	}
	if errLines == 0 {
		t.Fatalf("no NDJSON event carries an err field; events=%d", len(events))
	}
}

// TestServerBadPartialRejected: an unknown partial policy is a 400 at
// submit time, not a runtime surprise.
func TestServerBadPartialRejected(t *testing.T) {
	_, ts := newTestDaemon(t, Config{Budget: 2})
	resp, body := postJSON(t, ts.URL+"/jobs", map[string]any{
		"skeleton": "sleepgrid",
		"partial":  "best-effort",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad partial: status %d body %s, want 400", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "partial") {
		t.Fatalf("error body %q does not mention the partial policy", body)
	}
}

// TestServerMuscleTimeoutFailsJob: a timeout far below the cell sleep
// fails the job with ErrMuscleTimeout in the error string and a timeout
// counter in the view.
func TestServerMuscleTimeoutFailsJob(t *testing.T) {
	_, ts := newTestDaemon(t, Config{Budget: 2, Rebalance: 5 * time.Millisecond})
	base := ts.URL

	resp, raw := postJSON(t, base+"/jobs", map[string]any{
		"skeleton":   "sleepgrid",
		"params":     map[string]any{"k": 2, "m": 2, "cell_ms": 200},
		"timeout_ms": 10,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, raw)
	}
	var j jobView
	if err := json.Unmarshal(raw, &j); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if j.TimeoutMS != 10 {
		t.Fatalf("timeout_ms echoed as %v, want 10", j.TimeoutMS)
	}
	v := waitJob(t, base, j.ID, "done", "failed")
	if v.State != "failed" || !strings.Contains(v.Error, "deadline") {
		t.Fatalf("job = %s err %q, want failed with muscle deadline error", v.State, v.Error)
	}
	if v.Timeouts == 0 {
		t.Fatalf("timeouts_total = 0, want >= 1")
	}
}
