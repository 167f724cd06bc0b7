package server

import (
	"runtime"
	"testing"

	"skandium"
)

// waitTerminal blocks until j reaches a terminal state, without the HTTP
// layer or an event-log follower: it waits on the stream, then yields until
// the watch goroutine has recorded the outcome.
func waitTerminal(j *job) {
	for {
		j.mu.Lock()
		st, stream := j.state, j.streamLocked()
		j.mu.Unlock()
		if st.terminal() {
			return
		}
		if stream != nil {
			<-stream.Done()
		}
		runtime.Gosched()
	}
}

// BenchmarkServerSubmit is the allocation gate of the daemon's submit path:
// one op submits the smallest job there is (a one-cell sleepgrid sleeping
// 1 µs; sleepgrid refuses 0) to a memory-only server through Server.Submit
// and waits until it is terminal. The budget leaves room for the previous
// job's tail, so every submission starts at once and every op takes the
// same path.
func BenchmarkServerSubmit(b *testing.B) {
	srv := New(Config{Budget: 4})
	defer srv.Close()
	spec := SubmitSpec{
		Skeleton: "sleepgrid",
		Params:   skandium.Params{"k": 1, "m": 1, "cell_ms": 0.001},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := srv.Submit(spec)
		if err != nil {
			b.Fatal(err)
		}
		waitTerminal(j)
	}
}
