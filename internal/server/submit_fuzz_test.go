package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"skandium"
	"skandium/internal/journal"
)

// fuzzBlueprint squares up to 64 cells without sleeping, so no submission
// the fuzzer accepts can stall it or grow with its parameters.
const fuzzBlueprint = "servertest-fuzz"

func init() {
	skandium.RegisterBlueprint(skandium.Blueprint{
		Name:        fuzzBlueprint,
		Description: "map of up to 64 square cells that never sleep, for the submit fuzzer",
		Build: func(p skandium.Params) (skandium.Runner, error) {
			n := p.Int("n", 4)
			if n < 0 || n > 64 {
				return nil, fmt.Errorf("%s: n must be in [0, 64]", fuzzBlueprint)
			}
			fs := skandium.NewSplit("cells", func(total int) ([]int, error) {
				out := make([]int, total)
				for i := range out {
					out[i] = i
				}
				return out, nil
			})
			fe := skandium.NewExec("square", func(c int) (int, error) { return c * c, nil })
			fm := skandium.NewMerge("sum", func(parts []int) (int, error) {
				s := 0
				for _, v := range parts {
					s += v
				}
				return s, nil
			})
			return skandium.NewRunner(skandium.Map(fs, skandium.Seq(fe), fm), n), nil
		},
	})
}

// FuzzSubmitBody feeds arbitrary bodies to POST /jobs on a memory-only
// server and checks that it never panics, that it answers 202, 400, 422,
// 429 or 503, and that a refused submission leaves GET /jobs as it was
// (a 202 adds exactly one job). Bodies naming another catalog blueprint
// are skipped: their muscles sleep or grow with their parameters.
//
//	go test -run '^$' -fuzz FuzzSubmitBody -fuzztime 10s ./internal/server
func FuzzSubmitBody(f *testing.F) {
	for _, seed := range []string{
		// The server tests' bodies, on the fuzz blueprint.
		`{"skeleton":"servertest-fuzz","params":{"n":16},"goal_ms":150}`,
		`{"skeleton":"servertest-fuzz","params":{"n":4},"max_lp":1}`,
		`{"skeleton":"servertest-fuzz","params":{"n":8},"goal_ms":200,"policy":"hillclimb"}`,
		`{"skeleton":"servertest-fuzz","params":{"n":4},"timeout_ms":10}`,
		`{"skeleton":"servertest-fuzz","retries":3,"retry_backoff_ms":1,"partial":"skip"}`,
		`{"skeleton":"servertest-fuzz","partial":"substitute","substitute":7}`,
		`{"skeleton":"servertest-fuzz","tenant":"beta","priority":-1,"initial_lp":2}`,
		`{"skeleton":"no-such"}`,
		// Malformed JSON.
		``,
		`{`,
		`{"skeleton":`,
		`[]`,
		`null`,
		`{"skeleton":"servertest-fuzz"} trailing`,
		`{"skeleton":"servertest-fuzz","params":"n=4"}`,
		// Negative and huge numbers.
		`{"skeleton":"servertest-fuzz","params":{"n":-1}}`,
		`{"skeleton":"servertest-fuzz","params":{"n":1e300}}`,
		`{"skeleton":"servertest-fuzz","goal_ms":-5,"max_lp":-3,"initial_lp":-9}`,
		`{"skeleton":"servertest-fuzz","max_lp":1e300}`,
		`{"skeleton":"servertest-fuzz","initial_lp":2147483648,"priority":9223372036854775807}`,
		`{"skeleton":"servertest-fuzz","goal_ms":1e308,"timeout_ms":-1,"retry_backoff_ms":1e308}`,
		// An unknown partial policy and an unknown policy name.
		`{"skeleton":"servertest-fuzz","partial":"best-effort"}`,
		`{"skeleton":"servertest-fuzz","policy":"no-such-policy"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec journal.Spec
		if json.NewDecoder(bytes.NewReader(body)).Decode(&spec) == nil && spec.Skeleton != fuzzBlueprint {
			if _, known := skandium.LookupBlueprint(spec.Skeleton); known {
				return
			}
		}
		srv := New(Config{Budget: 2})
		defer srv.Close()
		h := srv.Handler()

		before := countJobs(t, h)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body)))
		after := countJobs(t, h)

		switch rec.Code {
		case http.StatusAccepted:
			if after != before+1 {
				t.Fatalf("202 took the job table from %d to %d jobs, want one more", before, after)
			}
		case http.StatusBadRequest, http.StatusUnprocessableEntity,
			http.StatusTooManyRequests, http.StatusServiceUnavailable:
			if after != before {
				t.Fatalf("%d took the job table from %d to %d jobs: %s", rec.Code, before, after, rec.Body)
			}
		default:
			t.Fatalf("status %d for %q: %s", rec.Code, body, strings.TrimSpace(rec.Body.String()))
		}
	})
}

// countJobs reads the job table through GET /jobs.
func countJobs(t *testing.T, h http.Handler) int {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/jobs", nil))
	var jobs []json.RawMessage
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &jobs) != nil {
		t.Fatalf("GET /jobs: status %d: %s", rec.Code, rec.Body)
	}
	return len(jobs)
}
