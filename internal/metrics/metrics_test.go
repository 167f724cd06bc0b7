package metrics

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"skandium/internal/clock"
)

func at(ms int) time.Time { return clock.Epoch.Add(time.Duration(ms) * time.Millisecond) }

func TestRecorderSeries(t *testing.T) {
	r := NewRecorder()
	r.SetStart(at(0))
	r.Gauge(at(0), 1, 1)
	r.Gauge(at(10), 2, 4)
	r.Gauge(at(20), 2, 4) // duplicate level: collapsed in series
	r.Gauge(at(30), 0, 4)

	active := r.ActiveSeries(time.Millisecond)
	want := []Point{{0, 1}, {10, 2}, {30, 0}}
	if len(active) != len(want) {
		t.Fatalf("series %v, want %v", active, want)
	}
	for i := range want {
		if active[i] != want[i] {
			t.Fatalf("series[%d] = %v, want %v", i, active[i], want[i])
		}
	}
	lp := r.LPSeries(time.Millisecond)
	if len(lp) != 2 || lp[0] != (Point{0, 1}) || lp[1] != (Point{10, 4}) {
		t.Fatalf("lp series %v", lp)
	}
}

func TestRecorderPeaks(t *testing.T) {
	r := NewRecorder()
	r.Gauge(at(0), 1, 2)
	r.Gauge(at(5), 7, 8)
	r.Gauge(at(9), 3, 4)
	if r.PeakActive() != 7 {
		t.Fatalf("peak active %d", r.PeakActive())
	}
	if r.PeakLP() != 8 {
		t.Fatalf("peak LP %d", r.PeakLP())
	}
}

func TestFirstLPAbove(t *testing.T) {
	r := NewRecorder()
	r.SetStart(at(0))
	r.Gauge(at(0), 1, 1)
	r.Gauge(at(42), 1, 6)
	d, ok := r.FirstLPAbove(1)
	if !ok || d != 42*time.Millisecond {
		t.Fatalf("FirstLPAbove = %v/%v", d, ok)
	}
	if _, ok := r.FirstLPAbove(10); ok {
		t.Fatal("LP never exceeded 10")
	}
}

func TestSamplesSortedEvenIfLate(t *testing.T) {
	r := NewRecorder()
	r.SetStart(at(0))
	r.Gauge(at(20), 2, 2)
	r.Gauge(at(10), 1, 1) // late arrival (concurrent gauges can race)
	s := r.Samples()
	if len(s) != 2 || s[0].T.After(s[1].T) {
		t.Fatalf("samples unsorted: %v", s)
	}
}

func TestCSV(t *testing.T) {
	r := NewRecorder()
	r.SetStart(at(0))
	r.Gauge(at(0), 1, 1)
	r.Gauge(at(1500), 3, 4)
	csv := r.CSV(time.Second)
	if !strings.HasPrefix(csv, "t,active,lp\n") {
		t.Fatalf("missing header: %q", csv)
	}
	if !strings.Contains(csv, "1.5000,3,4") {
		t.Fatalf("missing row: %q", csv)
	}
}

// TestRecorderConcurrent: writers append while a reader takes snapshots.
// Every snapshot is in time order, never shorter than the one before, and
// made of samples some writer reported, whole; the last holds every sample,
// each writer's in the order it reported them.
func TestRecorderConcurrent(t *testing.T) {
	const writers, perWriter = 4, 500
	r := NewRecorder()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Gauge(at(i), w, i)
			}
		}(w)
	}
	check := func(s []Sample) {
		t.Helper()
		for i, smp := range s {
			if smp.Active < 0 || smp.Active >= writers || smp.LP < 0 || smp.LP >= perWriter || !smp.T.Equal(at(smp.LP)) {
				t.Fatalf("sample %d is no writer's: %+v", i, smp)
			}
			if i > 0 && smp.T.Before(s[i-1].T) {
				t.Fatalf("samples %d and %d out of order: %v", i-1, i, s[i-1:i+1])
			}
		}
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for seen, finished := 0, false; !finished; {
		select {
		case <-done:
			finished = true
		default:
		}
		s := r.Samples()
		if len(s) < seen {
			t.Fatalf("snapshot of %d samples after one of %d", len(s), seen)
		}
		seen = len(s)
		check(s)
	}
	s := r.Samples()
	if len(s) != writers*perWriter {
		t.Fatalf("lost samples: %d", len(s))
	}
	check(s)
	next := make([]int, writers)
	for _, smp := range s {
		if smp.LP != next[smp.Active] {
			t.Fatalf("writer %d: sample %d where %d was next", smp.Active, smp.LP, next[smp.Active])
		}
		next[smp.Active]++
	}
}

// TestRecorderRebuildsObservedTimes: a sample is kept as an offset from the
// first one and handed back as base.Add(off). With real clock readings
// (monotonic part included) and a start taken before the first sample, every
// rebuilt T measures the same distance from the start as the observed one,
// and compares equal to it.
func TestRecorderRebuildsObservedTimes(t *testing.T) {
	r := NewRecorder()
	start := time.Now()
	r.SetStart(start)
	var seen []time.Time
	for i := 0; i < 50; i++ {
		now := time.Now()
		seen = append(seen, now)
		r.Gauge(now, i, i+1)
	}
	got := r.Samples()
	if len(got) != len(seen) {
		t.Fatalf("%d samples, want %d", len(got), len(seen))
	}
	for i, s := range got {
		if s.T.Sub(start) != seen[i].Sub(start) || !s.T.Equal(seen[i]) {
			t.Fatalf("sample %d: T-start %v, want %v", i, s.T.Sub(start), seen[i].Sub(start))
		}
		if s.Active != i || s.LP != i+1 {
			t.Fatalf("sample %d: active %d lp %d, want %d %d", i, s.Active, s.LP, i, i+1)
		}
	}
	if d, ok := r.FirstLPAbove(10); !ok || d != seen[10].Sub(start) {
		t.Fatalf("FirstLPAbove(10) = %v/%v, want %v", d, ok, seen[10].Sub(start))
	}
}

// TestRecorderClampsLevels: a level past the int32 range is kept at the
// bound, not wrapped.
func TestRecorderClampsLevels(t *testing.T) {
	r := NewRecorder()
	r.Gauge(at(0), math.MaxInt32+5, math.MinInt32-5)
	s := r.Samples()[0]
	if s.Active != math.MaxInt32 || s.LP != math.MinInt32 {
		t.Fatalf("active %d lp %d, want the int32 bounds", s.Active, s.LP)
	}
}

// BenchmarkRecorderGauge is the allocation gate of the pool's gauge hook in
// steady state: one op appends one sample, and a fresh recorder takes over
// every 1024 samples (a fine-grained job's series), so the series' growth
// is amortized and its memory bounded however long the benchmark runs.
func BenchmarkRecorderGauge(b *testing.B) {
	const perJob = 1024
	r := NewRecorder()
	now := clock.Epoch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%perJob == perJob-1 {
			r = NewRecorder()
		}
		now = now.Add(time.Microsecond)
		r.Gauge(now, i&7, 8)
	}
}

func TestAutoStart(t *testing.T) {
	r := NewRecorder()
	r.Gauge(at(100), 1, 1) // first sample anchors t=0
	pts := r.ActiveSeries(time.Millisecond)
	if len(pts) != 1 || pts[0].T != 0 {
		t.Fatalf("auto-start series: %v", pts)
	}
}

// gaugeModel is the reference the packed series is held to: one 16-byte
// gauge a sample, sorted on read.
type gaugeModel struct {
	base time.Time
	gs   []gauge
}

func (m *gaugeModel) add(now time.Time, active, lp int) {
	if len(m.gs) == 0 {
		m.base = now
	}
	m.gs = append(m.gs, gauge{off: int64(now.Sub(m.base)), active: Clamp32(active), lp: Clamp32(lp)})
}

func (m *gaugeModel) samples() []Sample {
	gs := slices.Clone(m.gs)
	slices.SortStableFunc(gs, func(a, b gauge) int { return cmp.Compare(a.off, b.off) })
	out := make([]Sample, len(gs))
	for i, g := range gs {
		out[i] = Sample{T: m.base.Add(time.Duration(g.off)), Active: int(g.active), LP: int(g.lp)}
	}
	return out
}

// gaugeOp is the bytes one operation takes in FuzzGaugePack's input: an op
// byte (0 trims, anything else reports a sample), then the sample's
// nanoseconds from clock.Epoch, active and LP, little-endian int64s.
const gaugeOp = 1 + 3*8

func appendGaugeOp(dst []byte, op byte, ns, active, lp int64) []byte {
	dst = append(dst, op)
	for _, v := range []int64{ns, active, lp} {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	return dst
}

// FuzzGaugePack: any run of samples — offsets at the int64 extremes and
// running backwards, levels past the int32 range, trims at any point with
// appends after them — reads back from the packed series exactly as from
// the 16-byte model, and a trimmed series has no slack.
func FuzzGaugePack(f *testing.F) {
	var edge []byte
	for _, op := range [][4]int64{
		{1, 0, 1, 1},
		{1, math.MaxInt64, math.MaxInt32 + 5, math.MinInt32 - 5},
		{1, math.MinInt64, math.MinInt64, math.MaxInt64},
		{1, -1500, -1, 0},
		{0, 0, 0, 0},
		{1, 3000, 2, 4},
		{1, 3000, 2, 4},
		{1, 2000, 1, 4},
	} {
		edge = appendGaugeOp(edge, byte(op[0]), op[1], op[2], op[3])
		f.Add(appendGaugeOp(nil, byte(op[0]), op[1], op[2], op[3]))
	}
	f.Add(edge)
	f.Add(append(slices.Clone(edge), edge...))
	// A fine fan-out's series: the active level steps by ±1 each sample,
	// the LP moves once, and a trim falls in the middle.
	var steps []byte
	for i := int64(0); i < 24; i++ {
		lp := int64(2)
		if i >= 12 {
			lp = 3
		}
		if i == 16 {
			steps = appendGaugeOp(steps, 0, 0, 0, 0)
		}
		steps = appendGaugeOp(steps, 1, 1500*i, 1+i%2, lp)
	}
	f.Add(steps)
	f.Fuzz(func(t *testing.T, data []byte) {
		r, m := NewRecorder(), &gaugeModel{}
		check := func(when string) {
			t.Helper()
			if got, want := r.Samples(), m.samples(); !slices.Equal(got, want) {
				t.Fatalf("%s: samples\n%v\nwant\n%v", when, got, want)
			}
		}
		le := binary.LittleEndian
		for ; len(data) >= gaugeOp; data = data[gaugeOp:] {
			if data[0] == 0 {
				r.Trim()
				if cap(r.packed) != len(r.packed) {
					t.Fatalf("trimmed series of %d bytes has room for %d", len(r.packed), cap(r.packed))
				}
				check("after a trim")
				continue
			}
			now := clock.Epoch.Add(time.Duration(le.Uint64(data[1:])))
			active, lp := int(int64(le.Uint64(data[9:]))), int(int64(le.Uint64(data[17:])))
			r.Gauge(now, active, lp)
			m.add(now, active, lp)
		}
		check("at the end")
		if limit := (binary.MaxVarintLen64 + 2*binary.MaxVarintLen32) * len(m.gs); len(r.packed) > limit {
			t.Fatalf("%d samples packed into %d bytes, more than %d", len(m.gs), len(r.packed), limit)
		}
	})
}
