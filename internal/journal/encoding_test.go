package journal

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// pinnedSpec sets every field of a Spec, with params and a substitute that
// exercise the encoder: nesting, null, a 2^60 integer (exact until a replay
// decodes it to float64), and characters encoding/json escapes.
func pinnedSpec() Spec {
	return Spec{
		Skeleton: "sleepgrid", Program: "map(fs, seq(fe), fm) <&>",
		Params: map[string]any{
			"k": 4, "m": 2.5, "name": "a<b>&\u2028é", "big": int64(1) << 60,
			"nested": map[string]any{"z": []any{1, "x"}, "a": nil},
		},
		GoalMS: 12.5, MaxLP: 3, InitialLP: 2, Policy: "hillclimb", TimeoutMS: 0.25, Retries: 4,
		RetryBackoffMS: 1.5, Partial: "substitute", Substitute: map[string]any{"v": -1},
		Tenant: "alpha", Priority: -2,
	}
}

// pinnedTS zeroes the wall-clock stamps, the one thing in a journal that
// differs from run to run.
var pinnedTS = regexp.MustCompile(`"(ts_ms|submitted_ts_ms|finished_ts_ms)": ?\d+`)

// readPinned reads a journal file, compacted (a snapshot is indented) and
// its stamps zeroed.
func readPinned(t *testing.T, path string, compact bool) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b = pinnedTS.ReplaceAll(b, []byte(`"$1":0`))
	if compact {
		var out bytes.Buffer
		if err := json.Compact(&out, b); err != nil {
			t.Fatal(err)
		}
		b = out.Bytes()
	}
	return string(b)
}

// TestRecordEncodingPinned: the bytes a journal writes — its records, the
// snapshot a rotation compacts the live table into, and the one a reopen
// compacts the replayed table into — are the bytes journals have always
// had, whatever form the table keeps a spec in.
func TestRecordEncodingPinned(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Submit("job-7", pinnedSpec()); err != nil {
		t.Fatal(err)
	}
	_ = j.Start("job-7")
	_ = j.Finish("job-7", StateDone, "<16>", "", FaultCounts{Retries: 1, Substituted: 2})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	const wantLog = `{"op":"submit","job":"job-7","seq":1,"ts_ms":0,"spec":{"skeleton":"sleepgrid","program":"map(fs, seq(fe), fm) \u003c\u0026\u003e","params":{"big":1152921504606846976,"k":4,"m":2.5,"name":"a\u003cb\u003e\u0026\u2028é","nested":{"a":null,"z":[1,"x"]}},"goal_ms":12.5,"max_lp":3,"initial_lp":2,"policy":"hillclimb","timeout_ms":0.25,"retries":4,"retry_backoff_ms":1.5,"partial":"substitute","substitute":{"v":-1},"tenant":"alpha","priority":-2}}
{"op":"start","job":"job-7","seq":2,"ts_ms":0}
{"op":"finish","job":"job-7","seq":3,"ts_ms":0,"state":"done","result":"\u003c16\u003e","faults":{"retries":1,"substituted":2}}
`
	if got := readPinned(t, filepath.Join(dir, journalName), false); got != wantLog {
		t.Errorf("records:\n got %s\nwant %s", got, wantLog)
	}
	j, _, err = Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	_ = j.Close()
	const wantReopened = `{"seq":3,"last":"job-7","jobs":[{"id":"job-7","spec":{"skeleton":"sleepgrid","program":"map(fs, seq(fe), fm) \u003c\u0026\u003e","params":{"big":1152921504606847000,"k":4,"m":2.5,"name":"a\u003cb\u003e\u0026\u2028é","nested":{"a":null,"z":[1,"x"]}},"goal_ms":12.5,"max_lp":3,"initial_lp":2,"policy":"hillclimb","timeout_ms":0.25,"retries":4,"retry_backoff_ms":1.5,"partial":"substitute","substitute":{"v":-1},"tenant":"alpha","priority":-2},"state":"done","result":"\u003c16\u003e","faults":{"retries":1,"substituted":2},"submitted_ts_ms":0,"finished_ts_ms":0}]}`
	if got := readPinned(t, filepath.Join(dir, snapshotName), true); got != wantReopened {
		t.Errorf("snapshot after a reopen:\n got %s\nwant %s", got, wantReopened)
	}

	dir = t.TempDir()
	j, _, err = Open(dir, Options{Fsync: FsyncNever, RotateBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	_ = j.Submit("job-7", pinnedSpec())
	_ = j.Close()
	const wantRotated = `{"seq":1,"last":"job-7","jobs":[{"id":"job-7","spec":{"skeleton":"sleepgrid","program":"map(fs, seq(fe), fm) \u003c\u0026\u003e","params":{"big":1152921504606846976,"k":4,"m":2.5,"name":"a\u003cb\u003e\u0026\u2028é","nested":{"a":null,"z":[1,"x"]}},"goal_ms":12.5,"max_lp":3,"initial_lp":2,"policy":"hillclimb","timeout_ms":0.25,"retries":4,"retry_backoff_ms":1.5,"partial":"substitute","substitute":{"v":-1},"tenant":"alpha","priority":-2},"state":"queued","faults":{},"submitted_ts_ms":0}]}`
	if got := readPinned(t, filepath.Join(dir, snapshotName), true); got != wantRotated {
		t.Errorf("snapshot of a rotation:\n got %s\nwant %s", got, wantRotated)
	}
}
