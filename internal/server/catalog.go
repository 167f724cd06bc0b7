package server

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"skandium"
	"skandium/internal/chaos"
	"skandium/internal/workload"
)

// The built-in catalog: the paper's word-count evaluation workload plus the
// mergesort / montecarlo examples, and a sleep-grid workload whose muscles
// are wall-clock-bound (they parallelize even on a single-CPU box, which
// makes it the workload of choice for exercising multi-job arbitration in
// tests and demos). Importing this package registers all of them.
func init() {
	skandium.RegisterBlueprint(wordcountBlueprint())
	skandium.RegisterBlueprint(mergesortBlueprint())
	skandium.RegisterBlueprint(montecarloBlueprint())
	skandium.RegisterBlueprint(sleepgridBlueprint())
	skandium.RegisterBlueprint(chaosgridBlueprint())
}

// wordcountBlueprint is the paper's §5 workload: a two-level map over a
// synthetic tweet corpus with shared split/merge muscles, so inner merges
// teach the estimator about the outer merge early.
func wordcountBlueprint() skandium.Blueprint {
	return skandium.Blueprint{
		Name:        "wordcount",
		Description: "paper §5 two-level map hashtag count over a synthetic tweet corpus",
		Defaults:    skandium.Params{"tweets": 20000, "k": 5, "m": 7, "seed": 20130725},
		Build: func(p skandium.Params) (skandium.Runner, error) {
			tweets := p.Int("tweets", 20000)
			k := p.Int("k", 5)
			m := p.Int("m", 7)
			if tweets < 1 || k < 1 || m < 1 {
				return nil, fmt.Errorf("wordcount: tweets/k/m must be >= 1")
			}
			corpus := workload.Generate(workload.GenConfig{
				Tweets: tweets, Seed: int64(p.Int("seed", 20130725)),
			})
			total := len(corpus.Tweets)
			fs := skandium.NewSplit("fs", func(c workload.Chunk) ([]workload.Chunk, error) {
				parts := k
				if c.Len() < total {
					parts = m
				}
				return workload.SplitChunk(c, parts), nil
			})
			fe := skandium.NewExec("fe", func(c workload.Chunk) (workload.Counts, error) {
				return workload.CountChunk(c), nil
			})
			fm := skandium.NewMerge("fm", func(parts []workload.Counts) (workload.Counts, error) {
				return workload.MergeCounts(parts), nil
			})
			inner := skandium.Map(fs, skandium.Seq(fe), fm)
			program := skandium.Map(fs, inner, fm)
			return skandium.NewRunner(program, workload.Chunk{Corpus: corpus, Lo: 0, Hi: total}), nil
		},
	}
}

// mergesortBlueprint sorts a seeded random slice with the d&c skeleton.
func mergesortBlueprint() skandium.Blueprint {
	return skandium.Blueprint{
		Name:        "mergesort",
		Description: "divide & conquer mergesort of a seeded random []int",
		Defaults:    skandium.Params{"n": 200000, "leaf": 16000, "seed": 1},
		Build: func(p skandium.Params) (skandium.Runner, error) {
			n := p.Int("n", 200000)
			leaf := p.Int("leaf", 16000)
			if n < 1 || leaf < 1 {
				return nil, fmt.Errorf("mergesort: n/leaf must be >= 1")
			}
			rng := rand.New(rand.NewSource(int64(p.Int("seed", 1))))
			data := make([]int, n)
			for i := range data {
				data[i] = rng.Int()
			}
			deep := skandium.NewCond("deep", func(s []int) (bool, error) {
				return len(s) > leaf, nil
			})
			halve := skandium.NewSplit("halve", func(s []int) ([][]int, error) {
				mid := len(s) / 2
				return [][]int{s[:mid:mid], s[mid:]}, nil
			})
			sortLeaf := skandium.NewExec("sortLeaf", func(s []int) ([]int, error) {
				out := append([]int(nil), s...)
				sort.Ints(out)
				return out, nil
			})
			mergeRuns := skandium.NewMerge("mergeRuns", func(runs [][]int) ([]int, error) {
				a, b := runs[0], runs[1]
				out := make([]int, 0, len(a)+len(b))
				i, j := 0, 0
				for i < len(a) && j < len(b) {
					if a[i] <= b[j] {
						out = append(out, a[i])
						i++
					} else {
						out = append(out, b[j])
						j++
					}
				}
				out = append(out, a[i:]...)
				return append(out, b[j:]...), nil
			})
			program := skandium.DaC(deep, halve, skandium.Seq(sortLeaf), mergeRuns)
			return skandium.NewRunner(program, data), nil
		},
	}
}

// montecarloBlueprint estimates π by map-parallel sampling.
func montecarloBlueprint() skandium.Blueprint {
	type batch struct {
		Seed int64
		N    int
	}
	return skandium.Blueprint{
		Name:        "montecarlo",
		Description: "map-parallel Monte-Carlo π estimation (returns the hit count)",
		Defaults:    skandium.Params{"samples": 2000000, "batches": 32},
		// Batches are seeded, so a batch computes the same hit count on any
		// node — cluster execution stays deterministic.
		Remote: skandium.JSONCodec[batch, int](),
		Build: func(p skandium.Params) (skandium.Runner, error) {
			samples := p.Int("samples", 2000000)
			batches := p.Int("batches", 32)
			if samples < 1 || batches < 1 {
				return nil, fmt.Errorf("montecarlo: samples/batches must be >= 1")
			}
			split := skandium.NewSplit("batches", func(total int) ([]batch, error) {
				out := make([]batch, batches)
				for i := range out {
					out[i] = batch{Seed: int64(i + 1), N: total / batches}
				}
				return out, nil
			})
			sample := skandium.NewExec("sample", func(b batch) (int, error) {
				return montecarloBatch(b.Seed, b.N), nil
			})
			fold := skandium.NewMerge("fold", func(hits []int) (int, error) {
				total := 0
				for _, h := range hits {
					total += h
				}
				return total, nil
			})
			program := skandium.Map(split, skandium.Seq(sample), fold)
			return skandium.NewRunner(program, samples), nil
		},
	}
}

// montecarloBatch counts which of n points, drawn as (x, y) pairs from a
// source seeded with seed, fall inside the unit circle. The source lives on
// the stack, so a batch allocates nothing.
func montecarloBatch(seed int64, n int) int {
	var rng rngSource
	rng.Seed(seed)
	hits := 0
	for i := 0; i < n; i++ {
		x, y := rng.Float64(), rng.Float64()
		if x*x+y*y <= 1 {
			hits++
		}
	}
	return hits
}

// sleepgridBlueprint is a two-level map of sleep muscles: k outer chunks
// each split into m cells, every cell sleeping cell_ms. Like the word
// count it shares fs/fm across both levels so analyses start after the
// first inner merge; unlike it, the muscles hold no CPU, so LP translates
// into real speedup even on one core — ideal for exercising the arbiter.
func sleepgridBlueprint() skandium.Blueprint {
	type cells struct {
		N int // cells in this chunk (outer: total cells)
	}
	return skandium.Blueprint{
		Name:        "sleepgrid",
		Description: "two-level map of sleeping muscles (k×m grid, cell_ms each): wall-clock-bound, parallelizes on any box",
		Defaults:    skandium.Params{"k": 4, "m": 4, "cell_ms": 5},
		// A chunk ships as its cell count; each remote node re-splits and
		// sleeps locally, returning the surviving-cell tally.
		Remote: skandium.JSONCodec[cells, int](),
		Build: func(p skandium.Params) (skandium.Runner, error) {
			k := p.Int("k", 4)
			m := p.Int("m", 4)
			cellMS := p.Float("cell_ms", 5)
			if k < 1 || m < 1 || cellMS <= 0 {
				return nil, fmt.Errorf("sleepgrid: k/m/cell_ms must be positive")
			}
			cell := time.Duration(cellMS * float64(time.Millisecond))
			total := k * m
			fs := skandium.NewSplit("fs", func(c cells) ([]cells, error) {
				parts := k
				if c.N < total {
					parts = m
				}
				out := make([]cells, parts)
				for i := range out {
					out[i] = cells{N: c.N / parts}
				}
				return out, nil
			})
			fe := skandium.NewExec("fe", func(c cells) (int, error) {
				time.Sleep(cell)
				return 1, nil
			})
			fm := skandium.NewMerge("fm", func(parts []int) (int, error) {
				s := 0
				for _, v := range parts {
					s += v
				}
				return s, nil
			})
			inner := skandium.Map(fs, skandium.Seq(fe), fm)
			program := skandium.Map(fs, inner, fm)
			return skandium.NewRunner(program, cells{N: total}), nil
		},
	}
}

// chaosgridBlueprint is the sleep grid with seeded fault injection on the
// leaf muscle — the daemon's live demonstration of the fault-tolerance
// layer. Submit it with retries/partial policies and watch the retry and
// fault counters move; each leaf returns 1, so under a "skip" policy the
// job's result is exactly the number of surviving cells.
func chaosgridBlueprint() skandium.Blueprint {
	type cells struct {
		N int
	}
	return skandium.Blueprint{
		Name:        "chaosgrid",
		Description: "sleep grid with seeded fault injection on the leaf muscle (pair with retries/timeout_ms/partial)",
		Defaults: skandium.Params{
			"k": 4, "m": 4, "cell_ms": 2, "seed": 1,
			"fail_rate": 0.1, "panic_rate": 0.0, "latency_rate": 0.0, "latency_ms": 0, "fail_first": 0,
		},
		Build: func(p skandium.Params) (skandium.Runner, error) {
			k := p.Int("k", 4)
			m := p.Int("m", 4)
			cellMS := p.Float("cell_ms", 2)
			if k < 1 || m < 1 || cellMS <= 0 {
				return nil, fmt.Errorf("chaosgrid: k/m/cell_ms must be positive")
			}
			failRate := p.Float("fail_rate", 0.1)
			panicRate := p.Float("panic_rate", 0)
			latencyRate := p.Float("latency_rate", 0)
			if failRate < 0 || failRate > 1 || panicRate < 0 || panicRate > 1 || latencyRate < 0 || latencyRate > 1 {
				return nil, fmt.Errorf("chaosgrid: rates must be in [0,1]")
			}
			inj := chaos.New(chaos.Config{
				Seed:        int64(p.Int("seed", 1)),
				ErrorRate:   failRate,
				PanicRate:   panicRate,
				LatencyRate: latencyRate,
				Latency:     time.Duration(p.Float("latency_ms", 0) * float64(time.Millisecond)),
				FailFirst:   p.Int("fail_first", 0),
			})
			cell := time.Duration(cellMS * float64(time.Millisecond))
			total := k * m
			fs := skandium.NewSplit("fs", func(c cells) ([]cells, error) {
				parts := k
				if c.N < total {
					parts = m
				}
				out := make([]cells, parts)
				for i := range out {
					out[i] = cells{N: c.N / parts}
				}
				return out, nil
			})
			fe := skandium.NewExec("fe", chaos.Wrap(inj, func(c cells) (int, error) {
				time.Sleep(cell)
				return 1, nil
			}))
			fm := skandium.NewMerge("fm", func(parts []int) (int, error) {
				s := 0
				for _, v := range parts {
					s += v
				}
				return s, nil
			})
			inner := skandium.Map(fs, skandium.Seq(fe), fm)
			program := skandium.Map(fs, inner, fm)
			return skandium.NewRunner(program, cells{N: total}), nil
		},
	}
}
