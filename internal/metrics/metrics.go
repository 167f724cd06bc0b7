// Package metrics records execution telemetry: the "number of active
// threads vs wall-clock time" series plotted in the paper's Figs. 5-7, plus
// summary statistics (peak LP, adaptation instants, makespan). The recorder
// plugs into either substrate through the pool/engine gauge hook.
package metrics

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
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

// gauge is a sample as the recorder decodes it: its T is base.Add(off),
// and Add carries the monotonic reading along, so every Sub of a rebuilt T
// gives what the observed one gave.
type gauge struct {
	off        int64 // nanoseconds since the recorder's first sample
	active, lp int32 // clamped, never wrapped
}

// firstGauges is the room the first sample reserves: a one-cell job's whole
// series, at the three bytes a sample takes when the active level moves by
// one, the LP not at all and the clock by microseconds.
const firstGauges = 16

// Clamp32 keeps an out-of-range count at the int32 bound instead of
// wrapping it: a level, fan-out or iteration count past 2^31 does not fit
// in memory, but a wrapped one would be a lie in a packed record.
func Clamp32(v int) int32 {
	return int32(max(math.MinInt32, min(math.MaxInt32, v)))
}

// Recorder accumulates gauge samples. Safe for concurrent use (the real
// pool calls it from many workers).
type Recorder struct {
	mu      sync.Mutex
	start   time.Time
	started bool
	base    time.Time // the first sample's T
	// packed is the series in arrival order, pointer-free: each sample is
	// off's delta from the sample before it (the zero gauge for the first),
	// a zigzag varint; then a uvarint of active's zigzag delta shifted left
	// by one, its low bit set when lp did not move; then, when it did, lp's
	// zigzag delta. The level deltas wrap at 32 bits. Bytes below its length
	// are never written again.
	packed []byte
	last   gauge // the newest sample, what the next one is a delta from
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
	if len(r.packed) == 0 {
		r.base = now
		r.packed = make([]byte, 0, 3*firstGauges)
	}
	g := gauge{off: int64(now.Sub(r.base)), active: Clamp32(active), lp: Clamp32(lp)}
	r.packed = binary.AppendVarint(r.packed, g.off-r.last.off)
	levels := zigzag32(g.active-r.last.active) << 1
	if g.lp == r.last.lp {
		r.packed = binary.AppendUvarint(r.packed, levels|1)
	} else {
		r.packed = binary.AppendUvarint(r.packed, levels)
		r.packed = binary.AppendVarint(r.packed, int64(g.lp-r.last.lp))
	}
	r.last = g
	r.mu.Unlock()
}

// Trim drops the series' append slack and returns the series: the time of
// its first sample and its packed samples, which Unpack decodes. No later
// Gauge writes those bytes; it appends to a copy.
func (r *Recorder) Trim() (base time.Time, packed []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if cap(r.packed) > len(r.packed) {
		r.packed = append(make([]byte, 0, len(r.packed)), r.packed...)
	}
	return r.base, r.packed
}

// snapshot decodes the series, with the series origin. The bytes it decodes
// are never written again, so it reads them outside the lock.
func (r *Recorder) snapshot() (start time.Time, out []Sample) {
	r.mu.Lock()
	start, base := r.start, r.base
	packed := r.packed
	r.mu.Unlock()
	return start, Unpack(base, packed)
}

// Unpack decodes a packed series whose first sample is at base in time
// order (concurrent gauges can report out of order; ties keep their arrival
// order), each T rebuilt as base.Add(off).
func Unpack(base time.Time, packed []byte) []Sample {
	gs := make([]gauge, 0, len(packed)/2) // a sample is at least two bytes
	var g gauge
	for off := 0; off < len(packed); {
		g.off += varint(packed, &off)
		levels, n := binary.Uvarint(packed[off:])
		off += n
		g.active += int32(levels>>2) ^ -int32(levels>>1&1)
		if levels&1 == 0 {
			g.lp += int32(varint(packed, &off))
		}
		gs = append(gs, g)
	}
	slices.SortStableFunc(gs, func(a, b gauge) int { return cmp.Compare(a.off, b.off) })
	out := make([]Sample, len(gs))
	for i, g := range gs {
		out[i] = Sample{T: base.Add(time.Duration(g.off)), Active: int(g.active), LP: int(g.lp)}
	}
	return out
}

// zigzag32 maps a 32-bit delta to the unsigned form a varint of it packs:
// 0, -1, 1, -2 … to 0, 1, 2, 3 ….
func zigzag32(d int32) uint64 {
	return uint64(uint32(d<<1 ^ d>>31))
}

// varint decodes the zigzag varint at src[*off] and moves *off past it.
func varint(src []byte, off *int) int64 {
	v, n := binary.Varint(src[*off:])
	*off += n
	return v
}

// Samples returns a copy of the raw observations in time order.
func (r *Recorder) Samples() []Sample {
	_, out := r.snapshot()
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
	start, samples := r.snapshot()
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
	start, samples := r.snapshot()
	for _, s := range samples {
		if s.LP > n {
			return s.T.Sub(start), true
		}
	}
	return 0, false
}

// CSV renders the series as "t,active,lp" lines, time in unit.
func (r *Recorder) CSV(unit time.Duration) string {
	var b strings.Builder
	b.WriteString("t,active,lp\n")
	start, samples := r.snapshot()
	for _, s := range samples {
		fmt.Fprintf(&b, "%.4f,%d,%d\n", float64(s.T.Sub(start))/float64(unit), s.Active, s.LP)
	}
	return b.String()
}
