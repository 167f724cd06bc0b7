package server

import (
	"bufio"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"skandium/internal/metrics"
)

// scrapeMetrics reads /metrics into series (name plus labels) → value.
func scrapeMetrics(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("/metrics line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// assertFleetSumsJobs checks that each fleet-wide skelrund_<name> equals the
// sum of its per-job skelrund_job_<name>{...} lines.
func assertFleetSumsJobs(t *testing.T, base string, names ...string) {
	t.Helper()
	m := scrapeMetrics(t, base)
	for _, name := range names {
		fleet, ok := m["skelrund_"+name]
		if !ok {
			t.Fatalf("/metrics lacks skelrund_%s", name)
		}
		var sum float64
		for series, v := range m {
			if strings.HasPrefix(series, "skelrund_job_"+name+"{") {
				sum += v
			}
		}
		if fleet != sum {
			t.Errorf("skelrund_%s = %v, want the sum of its per-job lines %v", name, fleet, sum)
		}
	}
}

// TestFleetTotalLPSeries: the total and peak LP come from the one
// aggregate the per-job gauge hooks move — the sum of each job's last
// reported LP, and the largest that sum has been.
func TestFleetTotalLPSeries(t *testing.T) {
	srv, ts := newTestDaemon(t, Config{Budget: 4})
	at := func(ms int) time.Time { return srv.startTime.Add(time.Duration(ms) * time.Millisecond) }
	a := &live{rec: metrics.NewRecorder()}
	b := &live{rec: metrics.NewRecorder()}
	srv.gauge(a, at(0), 0, 2)  // a: LP 2 from t=0
	srv.gauge(b, at(5), 0, 3)  // b: LP 3 from t=5 -> total 5
	srv.gauge(a, at(10), 0, 4) // a: LP 4 -> total 7
	srv.gauge(a, at(12), 1, 4) // same LP: the aggregate does not move
	srv.gauge(b, at(15), 0, 0) // b done -> total 4

	m := scrapeMetrics(t, ts.URL)
	if peak := m["skelrund_peak_total_lp"]; peak != 7 {
		t.Fatalf("peak total LP = %v, want 7", peak)
	}
	if total := m["skelrund_total_lp"]; total != 4 {
		t.Fatalf("current total LP = %v, want 4", total)
	}
	if n := len(a.rec.Samples()); n != 3 {
		t.Fatalf("job a recorded %d samples, want 3 (the timeline keeps every report)", n)
	}
}

// TestFleetTotalLPConcurrent: gauge reports arrive from every pool worker
// at once, several per job. However they interleave, the sum is the sum of
// each job's last reported LP, and it returns to 0 when every job reports
// its final 0.
func TestFleetTotalLPConcurrent(t *testing.T) {
	srv := New(Config{Budget: 4})
	defer srv.Close()
	jobs := make([]*live, 4)
	for i := range jobs {
		jobs[i] = &live{rec: metrics.NewRecorder()}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			j := jobs[w%len(jobs)]
			for i := 0; i < 500; i++ {
				srv.gauge(j, srv.startTime, 0, 1+(w+i)%5)
			}
		}(w)
	}
	wg.Wait()
	var want int64
	for _, j := range jobs {
		want += j.lp.Load()
	}
	sum, peak := srv.lps.read()
	if sum != want {
		t.Fatalf("total LP %d, want the sum of the jobs' last LPs %d", sum, want)
	}
	if peak < want || peak > 5*int64(len(jobs)) {
		t.Fatalf("peak total LP %d outside [%d, %d]: a job counted twice", peak, want, 5*len(jobs))
	}
	for _, j := range jobs {
		srv.gauge(j, srv.startTime, 0, 0)
	}
	if got, _ := srv.lps.read(); got != 0 {
		t.Fatalf("total LP %d after every job reported 0", got)
	}
}
