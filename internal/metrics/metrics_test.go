package metrics

import (
	"math"
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

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Gauge(at(i), w, w+1)
			}
		}(w)
	}
	wg.Wait()
	if len(r.Samples()) != 2000 {
		t.Fatalf("lost samples: %d", len(r.Samples()))
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
