package skandium

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// countingClock is the system clock, counting its readings.
type countingClock struct{ reads atomic.Int64 }

func (c *countingClock) Now() time.Time {
	c.reads.Add(1)
	return time.Now()
}

// TestClockReadsPerTask: a worker reads the clock when it takes a task, for
// the Before that starts the muscle's timing, once after the muscle and
// when it leaves the task; the nested-skeleton events and the gauge samples
// reuse those readings. A goal-less map of 500 seq tasks therefore reads the
// clock at most 4 times a task plus a constant for the map's own
// activation, at any LP and with or without a gauge.
func TestClockReadsPerTask(t *testing.T) {
	const tasks, fixed = 500, 32
	fs := NewSplit("fs", func(n int) ([]int, error) { return make([]int, n), nil })
	id := NewExec("id", func(n int) (int, error) { return n + 1, nil })
	fm := NewMerge("fm", func(ps []int) (int, error) {
		s := 0
		for _, p := range ps {
			s += p
		}
		return s, nil
	})
	for _, lp := range []int{1, 2} {
		for _, gauge := range []bool{false, true} {
			t.Run(fmt.Sprintf("lp=%d/gauge=%v", lp, gauge), func(t *testing.T) {
				clk := &countingClock{}
				opts := []Option{WithLP(lp), WithClock(clk)}
				if gauge {
					opts = append(opts, WithGauge(func(time.Time, int, int) {}))
				}
				st := NewStream[int, int](Map(fs, Seq(id), fm), opts...)
				defer st.Close()
				before := clk.reads.Load()
				if res, err := st.Do(tasks); err != nil || res != tasks {
					t.Fatalf("res=%v err=%v", res, err)
				}
				n := clk.reads.Load() - before
				t.Logf("%d reads, %.2f a task", n, float64(n)/tasks)
				if n > 4*tasks+fixed {
					t.Fatalf("%d clock reads for %d tasks (%.2f a task), want at most %d",
						n, tasks, float64(n)/tasks, 4*tasks+fixed)
				}
			})
		}
	}
}
