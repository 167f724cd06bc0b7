package remote

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"skandium"
)

// The fuzz blueprint squares its cells without sleeping, whatever a frame's
// part asks for, so an arbitrary body can never stall the fuzzer.
func init() {
	skandium.RegisterBlueprint(skandium.Blueprint{
		Name:        "remotetest-fuzz",
		Description: "farm(map) of square cells that never sleep, for the frame fuzzer",
		Remote:      skandium.JSONCodec[gridCell, int](),
		Build: func(p skandium.Params) (skandium.Runner, error) {
			fs := skandium.NewSplit("cells", func(total int) ([]gridCell, error) {
				out := make([]gridCell, total)
				for i := range out {
					out[i] = gridCell{N: i}
				}
				return out, nil
			})
			fe := skandium.NewExec("square", func(c gridCell) (int, error) { return c.N * c.N, nil })
			fm := skandium.NewMerge("sum", func(parts []int) (int, error) {
				s := 0
				for _, v := range parts {
					s += v
				}
				return s, nil
			})
			return skandium.NewRunner(skandium.Farm(skandium.Map(fs, skandium.Seq(fe), fm)), p.Int("n", 4)), nil
		},
	})
}

// FuzzWorkerTasks feeds arbitrary bodies to the worker's NDJSON task
// endpoint over a loaded cluster-eligible program and checks that it never
// panics, that a non-200 reply started nothing (no slot, no counted task),
// and that a 200 reply has one line per request, in request order (so no
// request seq is negative: a reply line with seq -1 rejects the batch).
//
//	go test -run '^$' -fuzz FuzzWorkerTasks -fuzztime 10s ./internal/remote
func FuzzWorkerTasks(f *testing.F) {
	const job = "fuzz-job"
	frame := func(seq, n int) string {
		return fmt.Sprintf(`{"seq":%d,"part":{"N":%d,"SleepMS":0},"job":%q}`, seq, n, job)
	}
	for _, seed := range []string{
		// The wire-protocol tests' frames.
		frame(10, 1) + "\n" + frame(11, 2) + "\n" + frame(12, 3) + "\n" + frame(13, 4) + "\n",
		`{"seq":0,"part":{"N":1,"SleepMS":0}}` + "\n",
		frame(0, 0) + "\n" + frame(0, 0) + "\n", // a replay inside one batch
		`{"seq":0,"part":{"N":1},"job":"epoch-0"}` + "\n",
		"",
		"\n\n",
		// Torn, oversized and negative-seq frames.
		`{"seq":0,"part":{"N":1,"SleepMS":0}}` + "\n" + `{"seq":1,"part":{"N":`,
		fmt.Sprintf(`{"seq":0,"part":{"N":1},"pad":%q}`, strings.Repeat("x", 512)) + "\n",
		frame(0, 1) + "\n" + frame(-1, 2) + "\n",
		`{"seq":3,"part":"not a cell"}` + "\r\n" + `null` + "\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		w := NewWorker(WorkerConfig{LP: 2, MaxFrame: 256})
		defer w.Close()
		if _, err := w.load(ProgramRequest{Blueprint: "remotetest-fuzz", Step: 1, Job: job}); err != nil {
			t.Fatal(err)
		}

		rec := httptest.NewRecorder()
		w.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/tasks", bytes.NewReader(body)))

		if rec.Code != http.StatusOK {
			w.mu.Lock()
			slots := len(w.slots)
			w.mu.Unlock()
			if slots != 0 || w.tasks.Load() != 0 {
				t.Fatalf("status %d started %d slot(s), counted %d task(s); want nothing started",
					rec.Code, slots, w.tasks.Load())
			}
			return
		}
		// A 200 means every non-empty line parsed as a request, so they
		// can be read back the way the scanner split them.
		var want []int
		for _, line := range bytes.Split(body, []byte("\n")) {
			line = bytes.TrimSuffix(line, []byte("\r"))
			if len(line) == 0 {
				continue
			}
			var tr TaskRequest
			if err := json.Unmarshal(line, &tr); err != nil {
				t.Fatalf("200 for a batch with an unparsable line %q: %v", line, err)
			}
			if tr.Seq < 0 {
				t.Fatalf("200 for a frame with seq %d, which the coordinator reads as a batch rejection", tr.Seq)
			}
			want = append(want, tr.Seq)
		}
		var got []int
		dec := json.NewDecoder(rec.Body)
		for dec.More() {
			var tr TaskResponse
			if err := dec.Decode(&tr); err != nil {
				t.Fatalf("reply line %d: %v", len(got), err)
			}
			got = append(got, tr.Seq)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("reply seqs %v, want one line per request in order %v", got, want)
		}
	})
}
