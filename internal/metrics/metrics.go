// Package metrics records execution telemetry: the "number of active
// threads vs wall-clock time" series plotted in the paper's Figs. 5-7, plus
// summary statistics (peak LP, adaptation instants, makespan). The recorder
// plugs into either substrate through the pool/engine gauge hook.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Canonical shed reasons (admission-control rejections) so dashboards can
// rely on stable label values.
const (
	ShedQueueFull  = "queue-full"
	ShedInfeasible = "goal-infeasible"
	ShedDraining   = "draining"
	// ShedPressure is the weighted probabilistic shed on the admission
	// ladder's middle rung: the queue is filling and the submission drew an
	// unlucky (weight-biased) lot before the hard queue-full wall.
	ShedPressure = "queue-pressure"
	// ShedBrownout marks optional work refused while the server is browned
	// out — sustained overload detected, only guaranteed traffic admitted.
	ShedBrownout = "brownout"
)

// Sample is one gauge observation.
type Sample struct {
	T      time.Time
	Active int
	LP     int
}

// Recorder accumulates gauge samples. Safe for concurrent use (the real
// pool calls it from many workers).
type Recorder struct {
	mu      sync.Mutex
	start   time.Time
	started bool
	samples []Sample
}

// NewRecorder returns an empty recorder. The first sample anchors t=0
// unless SetStart is called first.
func NewRecorder() *Recorder { return &Recorder{} }

// SetStart fixes the time origin of the series.
func (r *Recorder) SetStart(t time.Time) {
	r.mu.Lock()
	r.start, r.started = t, true
	r.mu.Unlock()
}

// Gauge is the hook to install on a pool or simulator engine.
func (r *Recorder) Gauge(now time.Time, active, lp int) {
	r.mu.Lock()
	if !r.started {
		r.start, r.started = now, true
	}
	r.samples = append(r.samples, Sample{T: now, Active: active, LP: lp})
	r.mu.Unlock()
}

// Samples returns a copy of the raw observations in time order.
func (r *Recorder) Samples() []Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]Sample(nil), r.samples...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].T.Before(out[j].T) })
	return out
}

// Point is one (time, value) pair of an exported series, time in units.
type Point struct {
	T float64
	V int
}

// ActiveSeries exports the active-thread step series (Figs. 5-7 y-axis)
// with time scaled to unit (e.g. time.Millisecond).
func (r *Recorder) ActiveSeries(unit time.Duration) []Point {
	return r.series(unit, func(s Sample) int { return s.Active })
}

// LPSeries exports the LP-target step series.
func (r *Recorder) LPSeries(unit time.Duration) []Point {
	return r.series(unit, func(s Sample) int { return s.LP })
}

func (r *Recorder) series(unit time.Duration, f func(Sample) int) []Point {
	r.mu.Lock()
	start := r.start
	samples := append([]Sample(nil), r.samples...)
	r.mu.Unlock()
	sort.SliceStable(samples, func(i, j int) bool { return samples[i].T.Before(samples[j].T) })
	var out []Point
	for _, s := range samples {
		p := Point{T: float64(s.T.Sub(start)) / float64(unit), V: f(s)}
		if n := len(out); n > 0 && out[n-1].V == p.V {
			continue
		}
		if n := len(out); n > 0 && out[n-1].T == p.T {
			out[n-1].V = p.V
			continue
		}
		out = append(out, p)
	}
	return out
}

// PeakActive returns the maximum observed number of active threads.
func (r *Recorder) PeakActive() int {
	peak := 0
	for _, s := range r.Samples() {
		if s.Active > peak {
			peak = s.Active
		}
	}
	return peak
}

// PeakLP returns the maximum observed LP target.
func (r *Recorder) PeakLP() int {
	peak := 0
	for _, s := range r.Samples() {
		if s.LP > peak {
			peak = s.LP
		}
	}
	return peak
}

// FirstLPAbove returns the instant (since start) the LP target first
// exceeded n, and whether it ever did.
func (r *Recorder) FirstLPAbove(n int) (time.Duration, bool) {
	r.mu.Lock()
	start := r.start
	samples := append([]Sample(nil), r.samples...)
	r.mu.Unlock()
	sort.SliceStable(samples, func(i, j int) bool { return samples[i].T.Before(samples[j].T) })
	for _, s := range samples {
		if s.LP > n {
			return s.T.Sub(start), true
		}
	}
	return 0, false
}

// CSV renders the active-thread series as "t,active" lines, time in unit.
func (r *Recorder) CSV(unit time.Duration) string {
	var b strings.Builder
	b.WriteString("t,active,lp\n")
	samples := r.Samples()
	r.mu.Lock()
	start := r.start
	r.mu.Unlock()
	for _, s := range samples {
		fmt.Fprintf(&b, "%.4f,%d,%d\n", float64(s.T.Sub(start))/float64(unit), s.Active, s.LP)
	}
	return b.String()
}
