package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef declares an end-to-end metric; BENCHMARK.json carries the same
// table and the self-test holds the two together.
type metricDef struct {
	Name, Unit, Better string
	Bound              float64
}

var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"jobs_per_s", "1/s", "higher", 0.25},
	{"done_ms_p50", "ms", "lower", 0.25},
	{"within_limit_share", "share", "higher", 0.02},
	{"cpu_ms_per_job", "ms", "lower", 0.25},
	{"heap_mb_end", "MB", "lower", 0.10},
}

// quantile returns the q-quantile of xs by nearest rank (0 for no data).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tailPercentile is the highest of the usual percentiles that still has at
// least ten samples beyond it, so the tail it names is not one outlier.
func tailPercentile(n int) float64 {
	best := 0.5
	for _, p := range []float64{0.9, 0.95, 0.99, 0.999, 0.9999} {
		if float64(n)*(1-p) >= 10 {
			best = p
		}
	}
	return best
}

// heapMB is the live heap after two collections (the second reclaims what
// the first's finalizers released).
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// counts is a tally of attempted jobs; a refused, failed or wrong job is
// attempted and failed.
type counts struct {
	Attempted, Succeeded, Failed, Wrong, Refused int
}

func tally(recs []jobRecord) counts {
	c := counts{Attempted: len(recs)}
	for i := range recs {
		r := &recs[i]
		switch {
		case r.OK:
			c.Succeeded++
		case r.Wrong:
			c.Wrong++
		case r.Refused:
			c.Refused++
		}
	}
	c.Failed = c.Attempted - c.Succeeded
	return c
}

// latencies returns the latency of every correct completion.
func latencies(recs []jobRecord) []float64 {
	var out []float64
	for i := range recs {
		if r := &recs[i]; r.OK {
			out = append(out, r.latencyMS())
		}
	}
	return out
}

// slice is one equal-count stretch of a measured phase.
type slice struct {
	Jobs, OK      int
	WallMS, CPUMS float64
}

// slices cuts a measured phase at its marks; its job count is a multiple
// of slicesPerRound.
func (p *phase) slices() []slice {
	size := len(p.Recs) / slicesPerRound
	out := make([]slice, slicesPerRound)
	for k := range out {
		a, b := p.Marks[k], p.Marks[k+1]
		out[k] = slice{Jobs: size, WallMS: b.WallMS - a.WallMS, CPUMS: b.CPUMS - a.CPUMS}
	}
	for i := range p.Recs {
		if r := &p.Recs[i]; r.OK {
			out[(r.Order-1)/size].OK++
		}
	}
	return out
}

// measured is what the rounds of a run observed, put together.
type measured struct {
	Recs   []jobRecord
	Slices []slice
	WallMS float64 // the phases' own durations, added up
	Delta  counters
}

func (m *measured) add(round int, p *phase, delta counters) {
	for i := range p.Recs {
		p.Recs[i].Round = round
	}
	m.Recs = append(m.Recs, p.Recs...)
	m.Slices = append(m.Slices, p.slices()...)
	m.WallMS += p.wallMS()
	m.Delta = m.Delta.plus(delta)
}

// midMean is the mean of the middle half of xs.
func midMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return mean(s[len(s)/4 : len(s)-len(s)/4])
}

// endToEnd computes the gated metrics of a run.
func endToEnd(w *workload, m *measured, setupS []float64, heapEndMB float64) map[string]metric {
	within := 0
	for i := range m.Recs {
		if r := &m.Recs[i]; r.OK && r.latencyMS() <= float64(w.Limit)/float64(time.Millisecond) {
			within++
		}
	}
	var rates, cpus []float64
	for _, s := range m.Slices {
		rates = append(rates, float64(s.OK)/s.WallMS*1e3)
		cpus = append(cpus, s.CPUMS/float64(s.Jobs))
	}
	rate := midMean(rates)
	if w.Open {
		// The schedule pins the rate of an open loop and a slice holds a
		// Poisson count, so slices only add noise: goodput is over the phases.
		rate = float64(tally(m.Recs).Succeeded) / m.WallMS * 1e3
	}
	return map[string]metric{
		"setup_s":            {median(setupS), "s"},
		"jobs_per_s":         {rate, "1/s"},
		"done_ms_p50":        {median(latencies(m.Recs)), "ms"},
		"within_limit_share": {float64(within) / float64(len(m.Recs)), "share"},
		"cpu_ms_per_job":     {midMean(cpus), "ms"},
		"heap_mb_end":        {heapEndMB, "MB"},
	}
}
