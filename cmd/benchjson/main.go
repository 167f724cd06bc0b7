// Command benchjson converts `go test -bench` output into a stable JSON
// document and compares two such documents against regression thresholds.
// It is the repo's stand-in for benchstat (kept dependency-free so CI needs
// nothing beyond the Go toolchain):
//
//	go test -bench=. -benchmem -run '^$' . | go run ./cmd/benchjson -out BENCH_4.json
//	go run ./cmd/benchjson -compare baseline.json -against BENCH_4.json -max-regress 0.20
//
// Compare mode exits non-zero when any benchmark present in both documents
// regressed by more than -max-alloc-regress in allocs/op, or by more than
// -max-regress in a custom metric. Wall time never gates: ns/op and custom
// units suffixed _ns are reported, and regressions in them print as
// advisories, because single-sample runs on shared machines are too noisy
// to tell a regression from noise (alternating pairs of full runs can).
// allocs/op is deterministic and can be gated tightly (CI uses 5%).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark line's parsed measurements.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Extra holds custom b.ReportMetric values by unit.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Doc is the emitted JSON document.
type Doc struct {
	Goos    string   `json:"goos,omitempty"`
	Goarch  string   `json:"goarch,omitempty"`
	Pkg     string   `json:"pkg,omitempty"`
	Results []Result `json:"results"`
}

func main() {
	out := flag.String("out", "", "write parsed benchmark JSON to this file (default stdout)")
	compare := flag.String("compare", "", "baseline JSON document; enables compare mode")
	against := flag.String("against", "", "candidate JSON document to compare against the baseline")
	maxRegress := flag.Float64("max-regress", 0.20, "fail when allocs/op or a custom metric regresses by more than this fraction")
	maxAllocRegress := flag.Float64("max-alloc-regress", -1, "tighter threshold for allocs/op, which is deterministic (-1 = use -max-regress)")
	flag.Parse()

	if *compare != "" {
		if *against == "" {
			fmt.Fprintln(os.Stderr, "benchjson: -compare requires -against")
			os.Exit(2)
		}
		if *maxAllocRegress < 0 {
			*maxAllocRegress = *maxRegress
		}
		if err := runCompare(*compare, *against, *maxRegress, *maxAllocRegress); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}

	doc, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parse reads `go test -bench` output. Lines look like:
//
//	BenchmarkName/case-8  200  60415 ns/op  63232 B/op  792 allocs/op  800 jobs_per_s
func parse(r io.Reader) (*Doc, error) {
	doc := &Doc{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			doc.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			doc.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // e.g. "BenchmarkX    --- FAIL"
		}
		res := Result{Name: trimProcs(fields[0]), Iterations: iters}
		// Remaining fields come in (value, unit) pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				res.NsPerOp = v
			case "B/op":
				res.BytesPerOp = v
			case "allocs/op":
				res.AllocsPerOp = v
			default:
				if res.Extra == nil {
					res.Extra = map[string]float64{}
				}
				res.Extra[unit] = v
			}
		}
		doc.Results = append(doc.Results, res)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(doc.Results) == 0 {
		return nil, fmt.Errorf("no benchmark lines found on stdin")
	}
	return doc, nil
}

// trimProcs drops the "-N" GOMAXPROCS suffix the testing package appends
// to benchmark names when N != 1, so a recording made on one machine still
// names the same benchmarks on a runner with another core count.
func trimProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 {
		return name
	}
	if _, err := strconv.ParseUint(name[i+1:], 10, 16); err != nil {
		return name
	}
	return name[:i]
}

func load(path string) (map[string]Result, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc Doc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	m := make(map[string]Result, len(doc.Results))
	for _, r := range doc.Results {
		m[r.Name] = r
	}
	return m, nil
}

func runCompare(basePath, candPath string, maxRegress, maxAllocRegress float64) error {
	base, err := load(basePath)
	if err != nil {
		return err
	}
	cand, err := load(candPath)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(base))
	for name := range base {
		if _, ok := cand[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("no common benchmarks between %s and %s", basePath, candPath)
	}
	var failures []string
	for _, name := range names {
		b, c := base[name], cand[name]
		nsDelta := ratio(c.NsPerOp, b.NsPerOp)
		allocDelta := ratio(c.AllocsPerOp, b.AllocsPerOp)
		fmt.Printf("%-60s ns/op %10.0f -> %10.0f (%+.1f%%)  allocs/op %8.0f -> %8.0f (%+.1f%%)\n",
			name, b.NsPerOp, c.NsPerOp, 100*nsDelta, b.AllocsPerOp, c.AllocsPerOp, 100*allocDelta)
		if allocDelta > maxAllocRegress {
			failures = append(failures, fmt.Sprintf("%s: allocs/op regressed %.1f%% (> %.0f%%)",
				name, 100*allocDelta, 100*maxAllocRegress))
		}
		if nsDelta > maxRegress {
			fmt.Printf("  advisory: %s: ns/op regressed %.1f%% (> %.0f%%)\n", name, 100*nsDelta, 100*maxRegress)
		}
		// Custom b.ReportMetric units gate too, at the same threshold, except
		// wall-clock units suffixed _ns, which are advisory like ns/op.
		units := make([]string, 0, len(b.Extra))
		for unit := range b.Extra {
			if _, ok := c.Extra[unit]; ok {
				units = append(units, unit)
			}
		}
		sort.Strings(units)
		for _, unit := range units {
			delta := ratio(c.Extra[unit], b.Extra[unit])
			fmt.Printf("%-60s %s %12.2f -> %12.2f (%+.1f%%)\n",
				name, unit, b.Extra[unit], c.Extra[unit], 100*delta)
			if delta <= maxRegress {
				continue
			}
			msg := fmt.Sprintf("%s: %s regressed %.1f%% (> %.0f%%)", name, unit, 100*delta, 100*maxRegress)
			if strings.HasSuffix(unit, "_ns") {
				fmt.Println("  advisory:", msg)
			} else {
				failures = append(failures, msg)
			}
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d regression(s):\n  %s", len(failures), strings.Join(failures, "\n  "))
	}
	fmt.Printf("compared %d benchmarks: within %.0f%% of baseline\n", len(names), 100*maxRegress)
	return nil
}

// ratio returns (cand-base)/base, treating a zero base as no change (both
// zero) or full regression guard (base 0, cand > 0 on allocs would divide by
// zero; report the absolute growth instead).
func ratio(cand, base float64) float64 {
	if base == 0 {
		if cand == 0 {
			return 0
		}
		return cand // 100% per unit over a zero base
	}
	return (cand - base) / base
}
