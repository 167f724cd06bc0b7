package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// A run measures its jobs in rounds, each against a fresh daemon, and each
// round in slices of equal job count. setup_s is the median over the
// rounds; the rate and CPU metrics report the mean of the middle half of
// all the slices, which a disturbance of up to a quarter of the run (a
// neighbour's burst on the box, a long collector cycle, a cluster grant
// episode) cannot move, yet which uses more of the run than a median.
const (
	defaultRounds  = 3
	slicesPerRound = 8
)

// pastTheEnd as ?from= makes the follow stream skip the retained event
// history: it then carries only what the job emits while the client waits,
// and ends when the job does.
const pastTheEnd = "4611686018427387904"

// jobView is the part of the daemon's job projection the harness reads.
type jobView struct {
	ID            string  `json:"id"`
	State         string  `json:"state"`
	Result        string  `json:"result"`
	Error         string  `json:"error"`
	GoalMS        float64 `json:"goal_ms"`
	CreatedMS     float64 `json:"created_ms"`
	StartedMS     float64 `json:"started_ms"`
	FinishedMS    float64 `json:"finished_ms"`
	BusyMS        float64 `json:"busy_ms"`
	TasksRun      uint64  `json:"tasks_run"`
	Events        int64   `json:"events"`
	EventsDropped int64   `json:"events_dropped"`
	Decisions     int     `json:"decisions"`
	Analyses      int     `json:"analyses"`
}

// jobRecord is everything observed about one attempted job. Times are
// milliseconds on the daemon's clock (since server start), which the client
// shares up to the bracket recorded in daemon.startSlackMS.
type jobRecord struct {
	Round   int  // which of the run's daemons served it
	Order   int  // completion order within the phase, from 1
	OK      bool // finished "done" with the oracle's result
	Refused bool // shed at the door: 429, 503 or 422
	Wrong   bool // reached a terminal state with another outcome than the oracle's
	Err     string

	Due, Send, Ack, EOF, Done float64
	View                      jobView

	// From /decisions and /timeline, goal jobs of a traced run only.
	FirstRaiseMS float64 // job start → first LP-raising decision (-1: none)
	LPSeconds    float64 // ∫ LP dt over the run
}

func (r *jobRecord) latencyMS() float64 { return r.Done - r.Due }

// mark is the process's wall and CPU clock at a slice boundary.
type mark struct{ WallMS, CPUMS float64 }

// phase is one pass over a request sequence against one daemon.
type phase struct {
	Recs  []jobRecord
	Marks [slicesPerRound + 1]mark
}

func (p *phase) wallMS() float64 { return p.Marks[slicesPerRound].WallMS - p.Marks[0].WallMS }

// generator drives one daemon over HTTP with at most w.Clients keep-alive
// connections.
type generator struct {
	w      *workload
	d      *daemon
	client *http.Client
}

func newGenerator(w *workload, d *daemon) *generator {
	return &generator{w: w, d: d, client: &http.Client{Transport: &http.Transport{
		MaxIdleConns:        w.Clients,
		MaxIdleConnsPerHost: w.Clients,
		MaxConnsPerHost:     w.Clients,
		DisableCompression:  true,
	}}}
}

func (g *generator) close() { g.client.CloseIdleConnections() }

func (g *generator) now() float64 { return g.d.sinceStartMS(time.Now()) }

// cpuMS is the CPU time the process has needed so far: user plus system
// time, less what the collector's idle-priority mark workers took. Those run
// only on a processor nothing else wants, so their share varies from run to
// run without the program doing anything different.
func cpuMS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	idle := []metrics.Sample{{Name: "/cpu/classes/gc/mark/idle:cpu-seconds"}}
	metrics.Read(idle)
	used := tv(ru.Utime) + tv(ru.Stime)
	if idle[0].Value.Kind() == metrics.KindFloat64 {
		used -= idle[0].Value.Float64() * 1e3
	}
	return used
}

// run sends reqs once. With logs, every finished goal job's decision log
// and LP timeline are fetched after its clock has stopped.
func (g *generator) run(reqs []request, logs bool) *phase {
	ph := &phase{Recs: make([]jobRecord, len(reqs))}
	segSize := max(len(reqs)/slicesPerRound, 1)
	var next, completed atomic.Int64
	start := g.now()
	ph.Marks[0] = mark{start, cpuMS()}
	var wg sync.WaitGroup
	for c := 0; c < g.w.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				rec := &ph.Recs[i]
				if g.w.Open {
					// The schedule restarts with the phase: its first job is due at once.
					rec.Due = start + float64(reqs[i].Due-reqs[0].Due)/float64(time.Millisecond)
					sleepUntil(g, rec.Due)
				}
				g.do(&reqs[i], rec, logs)
				if !g.w.Open {
					rec.Due = rec.Send
				}
				rec.Order = int(completed.Add(1))
				if rec.Order%segSize == 0 && rec.Order/segSize <= slicesPerRound {
					ph.Marks[rec.Order/segSize] = mark{g.now(), cpuMS()}
				}
			}
		}()
	}
	wg.Wait()
	return ph
}

// sleepUntil blocks until the daemon's clock reads due. It sleeps in the
// kernel, not on a Go timer: with every processor idle the runtime rounds
// timers up to its poller's whole milliseconds, which would make the
// generator half a millisecond late on average.
func sleepUntil(g *generator, due float64) {
	for {
		wait := due - g.now()
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(wait * float64(time.Millisecond)))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep is resumed by the loop
	}
}

// get fetches one URL and returns the body with the status.
func (g *generator) get(path string) ([]byte, int, error) {
	resp, err := g.client.Get(g.d.url + path)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// follow waits for a job to end: it reads the job's event stream from past
// its end until the daemon closes it.
func (g *generator) follow(path string) error {
	stream, err := g.client.Get(g.d.url + path + "/events?follow=1&from=" + pastTheEnd)
	if err != nil {
		return fmt.Errorf("follow: %w", err)
	}
	_, err = io.Copy(io.Discard, stream.Body)
	stream.Body.Close()
	if err != nil || stream.StatusCode != http.StatusOK {
		return fmt.Errorf("follow: status %d: %v", stream.StatusCode, err)
	}
	return nil
}

// do runs one job through the public API: submit, wait on the follow
// stream until the daemon closes it, fetch the result, check it.
func (g *generator) do(req *request, rec *jobRecord, logs bool) {
	fail := func(format string, args ...any) {
		rec.Err = fmt.Sprintf(format, args...)
		rec.Done = g.now()
	}
	rec.Send = g.now()
	resp, err := g.client.Post(g.d.url+"/jobs", "application/json", bytes.NewReader(req.Body))
	if err != nil {
		fail("submit: %v", err)
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.Ack = g.now()
	switch {
	case err != nil:
		fail("submit: read reply: %v", err)
		return
	case resp.StatusCode == http.StatusTooManyRequests, resp.StatusCode == http.StatusServiceUnavailable,
		resp.StatusCode == http.StatusUnprocessableEntity:
		rec.Refused = true
		fail("submit: refused with %d", resp.StatusCode)
		return
	case resp.StatusCode != http.StatusAccepted:
		fail("submit: status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		return
	}
	var accepted jobView
	if err := json.Unmarshal(body, &accepted); err != nil || accepted.ID == "" {
		fail("submit: bad reply %q", body)
		return
	}
	path := "/jobs/" + accepted.ID

	err = g.follow(path)
	rec.EOF = g.now()
	if err != nil {
		fail("%v", err)
		return
	}

	body, code, err := g.get(path)
	rec.Done = g.now()
	if err != nil || code != http.StatusOK {
		fail("fetch: status %d: %v", code, err)
		return
	}
	if err := json.Unmarshal(body, &rec.View); err != nil {
		fail("fetch: bad job view: %v", err)
		return
	}
	rec.OK = rec.View.State == "done" && rec.View.Result == req.Want
	if !rec.OK {
		rec.Wrong = true
		rec.Err = fmt.Sprintf("job %s: state %q result %q error %q, oracle wants %q",
			accepted.ID, rec.View.State, rec.View.Result, rec.View.Error, req.Want)
	}
	if logs && rec.OK && rec.View.GoalMS > 0 {
		g.controllerLogs(path, rec)
	}
}

// controllerLogs reads a finished goal job's decision log and LP timeline.
// It runs after the job's clock stopped, so it costs the next job's start,
// not this job's latency.
func (g *generator) controllerLogs(path string, rec *jobRecord) {
	rec.FirstRaiseMS = -1
	if body, code, err := g.get(path + "/decisions"); err == nil && code == http.StatusOK {
		var ds []struct {
			TMS   float64 `json:"t_ms"`
			OldLP int     `json:"old_lp"`
			NewLP int     `json:"new_lp"`
		}
		if json.Unmarshal(body, &ds) == nil {
			for _, d := range ds {
				if d.NewLP > d.OldLP {
					rec.FirstRaiseMS = d.TMS - rec.View.StartedMS
					break
				}
			}
		}
	}
	body, code, err := g.get(path + "/timeline")
	if err != nil || code != http.StatusOK {
		return
	}
	// Step-integrate the "lp" samples between job start and finish.
	lastT, lastLP := rec.View.StartedMS, 0
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		var s struct {
			Type string  `json:"type"`
			TMS  float64 `json:"t_ms"`
			LP   int     `json:"lp"`
		}
		if json.Unmarshal(sc.Bytes(), &s) != nil || s.Type != "lp" {
			continue
		}
		t := min(max(s.TMS, rec.View.StartedMS), rec.View.FinishedMS)
		rec.LPSeconds += float64(lastLP) * (t - lastT) / 1e3
		lastT, lastLP = t, s.LP
	}
	rec.LPSeconds += float64(lastLP) * (rec.View.FinishedMS - lastT) / 1e3
}
