// Command bench is the repository's end-to-end benchmark: one process
// hosts a skelrund daemon on loopback and the load generator that drives it
// through the public HTTP API, checks every result against an oracle, and
// reports six gated end-to-end metrics or, with -trace 1, a per-layer
// budget measured from outside the program. See README.md.
//
//	bash bench/run.sh -workload goal_grid -seed 1 -seconds 20 -trace 0   one run
//	bash bench/run.sh [-trace 1]                                         every workload
//	bash bench/run.sh -aa 2                                              two sets, compared
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

// root is where scratch (.bench_build/) and traces (bench/out/) go: the
// working directory, which run.sh has checked to be the repository root.
const root = "."

func main() {
	workloadName := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "seed of the request sequence")
	seconds := flag.Float64("seconds", defaultSeconds, "length of the measured phase at seed speed; fixes the job count")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics, budget table, bench/out/<workload>.trace.json")
	aa := flag.Int("aa", 0, "A/A check: run this (even) number of complete sets, alternately for two sides, and compare the sides' medians against the bounds")
	out := flag.String("out", "", "write the full result as JSON to this file")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) || *aa < 0 || *aa%2 != 0 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	_, err := os.Stat("BENCHMARK.json")
	if err == nil {
		switch {
		case *aa > 0:
			err = runAA(*aa, *seed, *seconds)
		case *workloadName == "all":
			_, err = runSet(*seed, *seconds, *trace == 1, *out, os.Stdout)
		default:
			err = runOne(*workloadName, *seed, *seconds, *trace == 1, *out)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// removeOnSignal removes dir if the process is interrupted, so a killed run
// leaves no journal behind; the returned function stops watching.
func removeOnSignal(dir string) (stop func()) {
	sigc := make(chan os.Signal, 1)
	done := make(chan struct{})
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		select {
		case <-sigc:
			os.RemoveAll(dir)
			os.Exit(1)
		case <-done:
		}
	}()
	return func() {
		signal.Stop(sigc)
		close(done)
	}
}

// errIncorrect makes the exit status non-zero after the result is printed.
var errIncorrect = errors.New("a job finished with another result than the oracle's")

// runOne is the driver's entry: one run of one workload. The last line of
// standard output is the result object of the BENCHMARK.json contract.
func runOne(name string, seed int64, seconds float64, trace bool, out string) error {
	w, ok := lookupWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	res, err := runWorkload(w, runOptions{Root: root, Seed: seed, Seconds: seconds, Trace: trace, Rounds: defaultRounds, Probes: fullProbes})
	if err != nil {
		return err
	}
	printResult(os.Stdout, w, res)
	if out != "" {
		if err := writeJSON(out, res); err != nil {
			return err
		}
	}
	last, err := json.Marshal(map[string]any{
		"correct":   res.Correct,
		"attempted": res.Counts.Attempted,
		"failed":    res.Counts.Failed,
		"metrics":   res.Metrics,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", last)
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printResult prints every metric as "workload/name value unit".
func printResult(out io.Writer, w *workload, res *result) {
	c := res.Counts
	fmt.Fprintf(out, "%s: seed %d, %d jobs (+%d warm-up) in %.2f s, attempted %d / succeeded %d / failed %d (refused %d, wrong %d), sequence %s\n",
		w.Name, res.Env.Seed, res.Jobs, res.WarmupJobs, res.MeasuredS,
		c.Attempted, c.Succeeded, c.Failed, c.Refused, c.Wrong, res.SequenceHash)
	if res.FirstError != "" {
		fmt.Fprintf(out, "%s: first failure: %s\n", w.Name, res.FirstError)
	}
	for _, group := range []map[string]metric{res.Metrics, res.Info} {
		names := make([]string, 0, len(group))
		for name := range group {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(out, "%s/%s %.6g %s\n", w.Name, name, group[name].Value, group[name].Unit)
		}
	}
	if res.Traced {
		printBudget(out, w.Name, res.Budget, budgetNotes(w, res))
		fmt.Fprintf(out, "%s: spans written to %s\n", w.Name, res.TraceFile)
	}
}

// setResult is one complete set: every workload once, untraced, and once
// more traced when asked.
type setResult struct {
	Runs []*result `json:"runs"`
}

// runSet runs every workload in a process of its own, exactly as the driver
// does, so a set's numbers are the driver's numbers.
func runSet(seed int64, seconds float64, trace bool, out string, stdout io.Writer) (*setResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(build, "set-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	set := &setResult{}
	incorrect := false
	for i := range workloads {
		for _, traced := range []int{0, 1} {
			if traced == 1 && !trace {
				continue
			}
			file := filepath.Join(tmp, fmt.Sprintf("%s.%d.json", workloads[i].Name, traced))
			cmd := exec.Command(self, "-workload", workloads[i].Name, "-seed", fmt.Sprint(seed),
				"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(traced), "-out", file)
			cmd.Dir, cmd.Stdout, cmd.Stderr = root, stdout, os.Stderr
			runErr := cmd.Run() // Run waits for the child to exit
			b, err := os.ReadFile(file)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", workloads[i].Name, errors.Join(runErr, err))
			}
			res := &result{}
			if err := json.Unmarshal(b, res); err != nil {
				return nil, fmt.Errorf("%s: %w", workloads[i].Name, err)
			}
			incorrect = incorrect || !res.Correct
			set.Runs = append(set.Runs, res)
		}
	}
	if out != "" {
		if err := writeJSON(out, set); err != nil {
			return nil, err
		}
	}
	if incorrect {
		return set, errIncorrect
	}
	return set, nil
}

// runAA holds the benchmark to its own bounds with the same code on both
// sides: complete sets run alternately for side A and side B, and a metric
// whose two medians disagree by more than its bound cannot gate anything.
// Two sets compare one run with one run; more sets ride out a burst from a
// neighbour on the box, and alternating the sides cancels slow drift.
func runAA(sets int, seed int64, seconds float64) error {
	var sides [2][]*setResult
	for s := 0; s < sets; s++ {
		fmt.Printf("== set %d of %d (side %c)\n", s+1, sets, 'A'+rune(s%2))
		set, err := runSet(seed, seconds, false, "", os.Stdout)
		if err != nil {
			return err
		}
		sides[s%2] = append(sides[s%2], set)
	}
	sideMedian := func(side []*setResult, run int, name string) float64 {
		var xs []float64
		for _, set := range side {
			xs = append(xs, set.Runs[run].Metrics[name].Value)
		}
		return median(xs)
	}
	pairs, violations := 0, 0
	fmt.Printf("== A/A: median of side A -> median of side B, relative difference beside the bound\n")
	for i := range workloads {
		for _, def := range endToEndDefs {
			a, b := sideMedian(sides[0], i, def.Name), sideMedian(sides[1], i, def.Name)
			diff := math.Abs(b-a) / math.Abs(a)
			verdict := "ok"
			if !(diff <= def.Bound) {
				verdict = "VIOLATION"
				violations++
			}
			pairs++
			fmt.Printf("%s/%s %.6g -> %.6g %s  diff %.2f%%  bound %.0f%%  %s\n",
				workloads[i].Name, def.Name, a, b, def.Unit, 100*diff, 100*def.Bound, verdict)
		}
	}
	if violations > 0 {
		return fmt.Errorf("A/A: %d of %d pairs differ by more than their bound", violations, pairs)
	}
	fmt.Printf("A/A: all %d pairs within their bounds\n", pairs)
	return nil
}
