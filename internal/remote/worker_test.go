package remote

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// newTestWorker serves an in-process worker over real HTTP.
func newTestWorker(t *testing.T, cfg WorkerConfig) (*Worker, *httptest.Server) {
	t.Helper()
	w := NewWorker(cfg)
	srv := httptest.NewServer(w.Handler())
	t.Cleanup(func() { srv.Close(); w.Close() })
	return w, srv
}

func postProgram(t *testing.T, url string, req ProgramRequest) (int, ProgramResponse) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/program", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pr ProgramResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, pr
}

// loadGrid loads the test grid program (fan-out at pre-order index 1,
// inside the farm wrap at index 0) onto the worker.
func loadGrid(t *testing.T, url string, n int) {
	t.Helper()
	code, pr := postProgram(t, url, ProgramRequest{
		Blueprint: "remotetest-grid",
		Params:    map[string]any{"n": n},
		Step:      1,
	})
	if code != http.StatusOK || !pr.OK {
		t.Fatalf("program load failed: %d %+v", code, pr)
	}
	if !strings.Contains(pr.Program, "farm") {
		t.Fatalf("worker echoed program %q, want the farm rendering", pr.Program)
	}
}

func TestWorkerUnknownBlueprint(t *testing.T) {
	_, srv := newTestWorker(t, WorkerConfig{})
	code, pr := postProgram(t, srv.URL, ProgramRequest{Blueprint: "no-such-blueprint"})
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422", code)
	}
	if !strings.Contains(pr.Error, "unknown blueprint") {
		t.Fatalf("error %q does not name the unknown blueprint", pr.Error)
	}
}

func TestWorkerIneligibleBlueprint(t *testing.T) {
	_, srv := newTestWorker(t, WorkerConfig{})
	code, pr := postProgram(t, srv.URL, ProgramRequest{Blueprint: "remotetest-local"})
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422", code)
	}
	if !strings.Contains(pr.Error, "not cluster-eligible") {
		t.Fatalf("error %q does not explain ineligibility", pr.Error)
	}
}

func TestWorkerBadStep(t *testing.T) {
	_, srv := newTestWorker(t, WorkerConfig{})
	// Out of range.
	code, pr := postProgram(t, srv.URL, ProgramRequest{Blueprint: "remotetest-grid", Step: 99})
	if code != http.StatusUnprocessableEntity || !strings.Contains(pr.Error, "out of range") {
		t.Fatalf("out-of-range step: %d %+v", code, pr)
	}
	// In range but not a fan-out (step 0 is the farm wrap).
	code, pr = postProgram(t, srv.URL, ProgramRequest{Blueprint: "remotetest-grid", Step: 0})
	if code != http.StatusUnprocessableEntity || !strings.Contains(pr.Error, "not a fan-out") {
		t.Fatalf("non-fan-out step: %d %+v", code, pr)
	}
}

func TestWorkerTasksBeforeProgram(t *testing.T) {
	_, srv := newTestWorker(t, WorkerConfig{})
	resp, err := http.Post(srv.URL+"/tasks", "application/x-ndjson",
		strings.NewReader(`{"seq":0,"part":{"N":1,"SleepMS":0}}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status %d, want 409", resp.StatusCode)
	}
}

func TestWorkerBatchHappyPath(t *testing.T) {
	_, srv := newTestWorker(t, WorkerConfig{LP: 4})
	loadGrid(t, srv.URL, 8)

	var buf bytes.Buffer
	for i := 0; i < 4; i++ {
		fmt.Fprintf(&buf, `{"seq":%d,"part":{"N":%d,"SleepMS":0}}`+"\n", 10+i, i+1)
	}
	resp, err := http.Post(srv.URL+"/tasks", "application/x-ndjson", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	got := map[int]int{}
	for dec.More() {
		var tr TaskResponse
		if err := dec.Decode(&tr); err != nil {
			t.Fatal(err)
		}
		if tr.Error != "" {
			t.Fatalf("task %d errored: %s", tr.Seq, tr.Error)
		}
		var v int
		if err := json.Unmarshal(tr.Result, &v); err != nil {
			t.Fatal(err)
		}
		got[tr.Seq] = v
	}
	for i := 0; i < 4; i++ {
		n := i + 1
		if got[10+i] != n*n {
			t.Fatalf("task %d = %d, want %d (all: %v)", 10+i, got[10+i], n*n, got)
		}
	}
}

// TestWorkerTornFrame: a syntactically broken NDJSON line fails the batch
// atomically — clean HTTP 400, nothing executed, no panic.
func TestWorkerTornFrame(t *testing.T) {
	w, srv := newTestWorker(t, WorkerConfig{})
	loadGrid(t, srv.URL, 8)

	body := `{"seq":0,"part":{"N":1,"SleepMS":0}}` + "\n" + `{"seq":1,"part":{"N":` + "\n"
	resp, err := http.Post(srv.URL+"/tasks", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var tr TaskResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tr.Error, "torn task frame") {
		t.Fatalf("error %q does not flag the torn frame", tr.Error)
	}
	if n := w.tasks.Load(); n != 0 {
		t.Fatalf("%d tasks ran from a torn batch, want 0", n)
	}
}

// TestWorkerOversizedFrame: a line beyond MaxFrame is rejected with a clean
// error instead of unbounded buffering.
func TestWorkerOversizedFrame(t *testing.T) {
	_, srv := newTestWorker(t, WorkerConfig{MaxFrame: 256})
	loadGrid(t, srv.URL, 8)

	huge := fmt.Sprintf(`{"seq":0,"part":{"N":1,"SleepMS":0},"pad":%q}`, strings.Repeat("x", 1024))
	resp, err := http.Post(srv.URL+"/tasks", "application/x-ndjson", strings.NewReader(huge+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var tr TaskResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tr.Error, "exceeds") {
		t.Fatalf("error %q does not flag the oversized frame", tr.Error)
	}
}

// TestWorkerNegativeSeq: a frame with a negative seq fails the batch like a
// torn one — 400 before any task starts — because the coordinator reads a
// seq -1 reply line as a whole-batch rejection, even after the work ran.
func TestWorkerNegativeSeq(t *testing.T) {
	w, srv := newTestWorker(t, WorkerConfig{})
	loadGrid(t, srv.URL, 8)

	body := `{"seq":0,"part":{"N":1,"SleepMS":0}}` + "\n" + `{"seq":-1,"part":{"N":2,"SleepMS":0}}` + "\n"
	resp, err := http.Post(srv.URL+"/tasks", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if n := w.tasks.Load(); n != 0 {
		t.Fatalf("%d tasks ran from a rejected batch, want 0", n)
	}
	w.mu.Lock()
	slots := len(w.slots)
	w.mu.Unlock()
	if slots != 0 {
		t.Fatalf("%d slots started from a rejected batch, want 0", slots)
	}
}

// TestWorkerHealthReport: the probe carries the pool counters and the
// loaded blueprint.
func TestWorkerHealthReport(t *testing.T) {
	_, srv := newTestWorker(t, WorkerConfig{LP: 3, MaxLP: 7})
	loadGrid(t, srv.URL, 8)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.Blueprint != "remotetest-grid" || h.LP != 3 || h.MaxLP != 7 {
		t.Fatalf("health %+v, want ok with blueprint remotetest-grid, lp 3, max 7", h)
	}
}

// TestWorkerLPGrant: an arbiter grant pushed over /lp moves the pool.
func TestWorkerLPGrant(t *testing.T) {
	w, srv := newTestWorker(t, WorkerConfig{LP: 1, MaxLP: 8})
	resp, err := http.Post(srv.URL+"/lp", "application/json", strings.NewReader(`{"lp":5}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := w.Report().LP; got != 5 {
		t.Fatalf("pool LP %d after grant, want 5", got)
	}
}

// BenchmarkWorkerBatch is the allocation gate of a worker's task endpoint:
// one op posts one batch of 16 fresh grid tasks to the worker's handler in
// process, and the worker parses, runs and answers it.
func BenchmarkWorkerBatch(b *testing.B) {
	const tasks = 16
	w := NewWorker(WorkerConfig{LP: 2})
	defer w.Close()
	h := w.Handler()
	program, _ := json.Marshal(ProgramRequest{Blueprint: "remotetest-grid", Params: map[string]any{"n": tasks}, Step: 1})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/program", bytes.NewReader(program)))
	if rec.Code != http.StatusOK {
		b.Fatalf("program load: %d %s", rec.Code, rec.Body)
	}
	var batch bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		batch.Reset()
		for k := 0; k < tasks; k++ {
			fmt.Fprintf(&batch, `{"seq":%d,"part":{"N":%d,"SleepMS":0}}`+"\n", i*tasks+k, k+1)
		}
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/tasks", bytes.NewReader(batch.Bytes()))
		b.StartTimer()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("batch: %d %s", rec.Code, rec.Body)
		}
	}
}
