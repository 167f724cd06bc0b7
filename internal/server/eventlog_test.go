package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skandium"
	"skandium/internal/clock"
	"skandium/internal/event"
	"skandium/internal/metrics"
	"skandium/internal/muscle"
	"skandium/internal/skel"
)

// ---------------------------------------------------------------------------
// The reference: the slice-backed log and the encoding/json rendering this
// package shipped before the compact ring, kept verbatim as the model the new
// one is held to. Nothing outside this file uses it.

type eventRecord struct {
	Seq       int64   `json:"seq"`
	TMS       float64 `json:"t_ms"`
	Ev        string  `json:"ev"`
	Kind      string  `json:"kind"`
	When      string  `json:"when"`
	Where     string  `json:"where"`
	Index     int64   `json:"index"`
	Parent    int64   `json:"parent"`
	Card      int     `json:"card,omitempty"`
	Branch    int     `json:"branch,omitempty"`
	Iter      int     `json:"iter,omitempty"`
	Worker    int     `json:"worker"`
	Err       string  `json:"err,omitempty"`
	Truncated int64   `json:"truncated,omitempty"`
}

type refLog struct {
	mu      sync.Mutex
	base    int64
	buf     []eventRecord
	cap     int
	dropped int64
	closed  bool
}

func (l *refLog) append(rec eventRecord) {
	l.mu.Lock()
	rec.Seq = l.base + int64(len(l.buf))
	l.buf = append(l.buf, rec)
	if len(l.buf) > l.cap {
		drop := len(l.buf) - l.cap
		l.buf = append(l.buf[:0], l.buf[drop:]...)
		l.base += int64(drop)
		l.dropped += int64(drop)
	}
	l.mu.Unlock()
}

func (l *refLog) snapshot(from int64) (recs []eventRecord, next int64, done bool, lost int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if from < l.base {
		lost = l.base - from
		from = l.base
	}
	if idx := from - l.base; idx < int64(len(l.buf)) {
		recs = append(recs, l.buf[idx:]...)
	}
	return recs, l.base + int64(len(l.buf)), l.closed, lost
}

// read is one pass of the old handleEvents loop: what a reader at cursor
// from is sent, and where its cursor stands afterwards.
func (l *refLog) read(from int64) (out string, next int64, done bool) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	recs, next, done, lost := l.snapshot(from)
	if lost > 0 {
		enc.Encode(eventRecord{Seq: next - int64(len(recs)), Ev: "truncated", Truncated: lost})
	}
	for _, rec := range recs {
		enc.Encode(rec)
	}
	return b.String(), next, done
}

// refRecord is the old listener's rendering of an event, from the same
// inputs the new listener gets.
func refRecord(start time.Time, e *event.Event) eventRecord {
	rec := eventRecord{
		TMS:    float64(e.Time.Sub(start)) / float64(time.Millisecond),
		Ev:     fmt.Sprintf("%s@%s(%d)", e.Node.Kind(), legacyCode(e.When, e.Where), e.Index),
		Kind:   e.Node.Kind().String(),
		When:   e.When.String(),
		Where:  e.Where.String(),
		Index:  e.Index,
		Parent: e.Parent,
		Card:   e.Card,
		Branch: e.Branch,
		Iter:   e.Iter,
		Worker: e.Worker,
	}
	if e.Err != nil {
		rec.Err = e.Err.Error()
	}
	return rec
}

func legacyCode(when event.When, where event.Where) string {
	code := map[event.Where]string{
		event.Skeleton: "", event.Split: "s", event.Merge: "m", event.Condition: "c",
		event.NestedSkel: "n", event.Retry: "r", event.Fault: "f",
	}[where]
	if when == event.After {
		return "a" + code
	}
	return "b" + code
}

// ---------------------------------------------------------------------------

// kindNodes holds one node of every pattern kind, for events to point at.
var kindNodes = func() []*skel.Node {
	fe := muscle.NewExecute("fe", func(p any) (any, error) { return p, nil })
	fs := muscle.NewSplit("fs", func(p any) ([]any, error) { return []any{p}, nil })
	fm := muscle.NewMerge("fm", func(ps []any) (any, error) { return ps[0], nil })
	fc := muscle.NewCondition("fc", func(p any) (bool, error) { return false, nil })
	seq := skel.NewSeq(fe)
	return []*skel.Node{
		seq, skel.NewFarm(seq), skel.NewPipe(seq, seq), skel.NewWhile(fc, seq),
		skel.NewIf(fc, seq, seq), skel.NewFor(2, seq), skel.NewMap(fs, seq, fm),
		skel.NewFork(fs, []*skel.Node{seq}, fm), skel.NewDaC(fc, fs, seq, fm),
	}
}()

// awkward strings exercise every escaping rule of the encoder.
var awkward = []string{
	"", "plain", `quote " and \ backslash`, "tab\tnl\ncr\rbs\bff\f", "ctl \x00\x01\x1f del \x7f",
	"html <b>&amp;</b>", "sep \u2028 and \u2029", "bad utf8 \xff\xfe\xc3", "truncated rune \xe2\x82",
	"unicode → ∆ 世界 🙂", "d&c",
}

// randomEvent draws an event over the whole input space of the listener.
func randomEvent(rng *rand.Rand, start time.Time) *event.Event {
	e := &event.Event{
		Node:   kindNodes[rng.Intn(len(kindNodes))],
		When:   event.When(rng.Intn(2)),
		Where:  event.Where(rng.Intn(int(event.Fault) + 1)),
		Index:  rng.Int63n(1 << 20),
		Parent: rng.Int63n(1<<20) - 1,
		Worker: rng.Intn(9) - 1,
		Time:   start.Add(time.Duration(rng.Int63n(int64(time.Minute)))),
	}
	if rng.Intn(3) == 0 {
		e.Card = rng.Intn(1000)
	}
	if rng.Intn(3) == 0 {
		e.Branch = rng.Intn(1000) - 1
	}
	if rng.Intn(3) == 0 {
		e.Iter = rng.Intn(100)
	}
	if rng.Intn(8) == 0 {
		e.Err = errors.New(awkward[rng.Intn(len(awkward))])
	}
	return e
}

// pair is the new log and the reference fed the same appends, and a twin
// log too large ever to drop, whose buffer, one packer run of every record,
// is what records decodes.
type pair struct {
	start      time.Time
	log, twin  *eventLog
	hook, feed event.Listener
	ref        *refLog
}

func newPair(capacity int) *pair {
	start := time.Unix(1700000000, 0)
	l, twin := newEventLog(capacity, start), newEventLog(1<<40, start)
	return &pair{start: start, log: l, twin: twin, hook: l.listener(), feed: twin.listener(), ref: &refLog{cap: capacity}}
}

// records returns every record appended so far, by seq.
func (p *pair) records() []record {
	p.twin.mu.Lock()
	defer p.twin.mu.Unlock()
	return unpack(p.twin.packedEvents, p.twin.cap)
}

// unpack decodes the records of p, a log's of capacity capacity.
func unpack(p packedEvents, capacity int64) []record {
	recs := make([]record, p.n-p.first)
	var dec packer
	for i, off := 0, 0; i < len(recs); i++ {
		if int64(i) == capacity {
			dec = packer{}
		}
		off += dec.decode(p.buf[off:], &recs[i])
	}
	return recs
}

// layout packs recs, the records first… of a log of capacity capacity, as
// the log lays them out: from the zero packer at seq first and again at seq
// first+cap.
func layout(recs []record, capacity int64) []byte {
	var buf []byte
	var enc packer
	for i := range recs {
		if int64(i) == capacity {
			enc = packer{}
		}
		buf = enc.append(buf, &recs[i])
	}
	return buf
}

// checkLayout: the log's buffer, live or trimmed, holds its retained
// records packed from the zero packer at seq first and again at seq
// first+cap. Below cap records it is one packer run.
func (p *pair) checkLayout(t *testing.T) {
	t.Helper()
	recs := p.records()
	p.log.mu.Lock()
	defer p.log.mu.Unlock()
	if want := layout(recs[p.log.first:p.log.n], p.log.cap); !bytes.Equal(p.log.buf, want) {
		t.Fatalf("records %d…%d of a ring of %d are laid out as\n%x\nwant\n%x",
			p.log.first, p.log.n-1, p.log.cap, p.log.buf, want)
	}
}

func (p *pair) appendRandom(rng *rand.Rand) {
	if rng.Intn(16) == 0 {
		at := p.start.Add(time.Duration(rng.Int63n(int64(time.Minute))))
		s := func() string { return awkward[rng.Intn(len(awkward))] }
		ev, kind, when, where, errText := s(), s(), s(), s(), s()
		p.log.appendText(at, ev, kind, when, where, errText)
		p.twin.appendText(at, ev, kind, when, where, errText)
		p.ref.append(eventRecord{
			TMS: float64(at.Sub(p.start)) / float64(time.Millisecond),
			Ev:  ev, Kind: kind, When: when, Where: where, Err: errText,
		})
		return
	}
	e := randomEvent(rng, p.start)
	p.hook.Handler(e)
	p.feed.Handler(e)
	p.ref.append(refRecord(p.start, e))
}

func (p *pair) close() {
	p.log.close()
	p.ref.mu.Lock()
	p.ref.closed = true
	p.ref.mu.Unlock()
}

// drain reads rd until it has caught up, as a non-following client does.
func drain(rd *logReader) (out string, done bool) {
	var sb strings.Builder
	for {
		b, d := rd.next(waitNone)
		if len(b) == 0 {
			return sb.String(), d
		}
		sb.Write(b)
	}
}

// TestEventLogModel drives seeded random appends, reads from cursors before,
// inside and past the retained window, trims at random points, and closes,
// against the reference: same bytes, same cursors, same counters, at every
// step, and the buffer laid out as checkLayout says. Cursors live across
// drops and trims — some stopped after one batch, mid-way through the
// buffer — and appends after a trim grow it again. At cap 1 every append
// past the second drops.
func TestEventLogModel(t *testing.T) {
	// The reference moves its whole buffer on every append once it is full,
	// so the 8192 case goes just far enough past the wrap.
	for _, tc := range []struct{ capacity, seeds, steps, burst int }{
		{1, 3, 300, 1}, {4, 3, 300, 2}, {300, 3, 300, 20}, {8192, 1, 150, 256},
	} {
		capacity := tc.capacity
		for seed := int64(1); seed <= int64(tc.seeds); seed++ {
			rng := rand.New(rand.NewSource(seed))
			p := newPair(capacity)
			type cursor struct {
				rd  *logReader
				ref int64
			}
			var cursors []*cursor
			trims := 0
			for step := 0; step < tc.steps; step++ {
				switch op := rng.Intn(12); {
				case op < 6:
					for n := 1 + rng.Intn(tc.burst); n > 0; n-- {
						p.appendRandom(rng)
					}
				case op < 7 && len(cursors) < 8:
					total := p.log.len()
					from := []int64{0, rng.Int63n(total + 1), total, total + 1 + rng.Int63n(1<<40), 1 << 62}[rng.Intn(5)]
					cursors = append(cursors, &cursor{rd: p.log.reader(from), ref: from})
				case op < 8:
					p.log.trim()
					trims++
					checkPacked(t, p.log, p.records()...)
				case op < 9 && len(cursors) > 0:
					// One batch only: the cursor stops inside the window and
					// inside the buffer.
					c := cursors[rng.Intn(len(cursors))]
					got, _ := c.rd.next(waitNone)
					want, _, _ := p.ref.read(c.ref)
					if !strings.HasPrefix(want, string(got)) {
						t.Fatalf("cap %d seed %d step %d: one batch is not a prefix of the read\n got: %s\nwant: %s",
							capacity, seed, step, got, want)
					}
					if len(got) > 0 {
						var last eventRecord
						lines := strings.SplitAfter(strings.TrimSuffix(string(got), "\n"), "\n")
						if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
							t.Fatal(err)
						}
						if want := last.Seq + 1; last.Truncated == 0 && c.rd.from != want {
							t.Fatalf("cap %d seed %d step %d: cursor at %d after a batch ending at seq %d",
								capacity, seed, step, c.rd.from, last.Seq)
						}
					}
					c.ref = c.rd.from
				case len(cursors) > 0:
					c := cursors[rng.Intn(len(cursors))]
					got, gotDone := drain(c.rd)
					want, next, wantDone := p.ref.read(c.ref)
					c.ref = next
					if got != want || gotDone != wantDone || c.rd.from != next {
						t.Fatalf("cap %d seed %d step %d: read differs (cursor %d vs %d, done %v vs %v)\n got: %s\nwant: %s",
							capacity, seed, step, c.rd.from, next, gotDone, wantDone, got, want)
					}
				}
				p.ref.mu.Lock()
				refLen, refDropped := p.ref.base+int64(len(p.ref.buf)), p.ref.dropped
				p.ref.mu.Unlock()
				if p.log.len() != refLen || p.log.droppedCount() != refDropped {
					t.Fatalf("cap %d seed %d step %d: len/dropped %d/%d, want %d/%d",
						capacity, seed, step, p.log.len(), p.log.droppedCount(), refLen, refDropped)
				}
				if held := int64(len(p.log.side)); held > int64(capacity) {
					t.Fatalf("cap %d: side table holds %d entries, more than the ring", capacity, held)
				}
				p.checkLayout(t)
			}
			if p.log.droppedCount() == 0 {
				t.Fatalf("cap %d seed %d: the ring never wrapped", capacity, seed)
			}
			if trims == 0 {
				t.Fatalf("cap %d seed %d: the log was never trimmed", capacity, seed)
			}
			p.close()
			if rng.Intn(2) == 0 {
				p.log.trim() // as watch does once the job is frozen
			}
			for _, c := range cursors {
				got, done := drain(c.rd)
				want, _, _ := p.ref.read(c.ref)
				if got != want || !done {
					t.Fatalf("cap %d seed %d: after close (done %v)\n got: %s\nwant: %s", capacity, seed, done, got, want)
				}
			}
		}
	}
}

// checkPacked: a trimmed log's buffer — a live log's, or the one a frozen
// job's outcome keeps — starts at its oldest retained record, has no room
// to spare, and holds each record in [1, maxPackedRecord] bytes: a record
// that repeats the last one with its when and where, t included, is its
// header byte alone. It is its retained records packed from the zero
// packer: those of all, every record the log was given by seq, when the
// caller has them, else those the buffer decodes to.
func checkPacked(t *testing.T, log events, all ...record) {
	t.Helper()
	var p packedEvents
	var kept int
	switch l := log.(type) {
	case *eventLog:
		l.mu.Lock()
		p, kept = l.packedEvents, int(min(l.n, l.cap))
		l.mu.Unlock()
	case *outcome:
		p = l.events
		kept = int(p.n - p.first)
	}
	switch {
	case kept == 0:
		return
	case p.first != p.n-int64(kept):
		t.Fatalf("buffer of %d retained records starts at seq %d, want %d", kept, p.first, p.n-int64(kept))
	case cap(p.buf) != len(p.buf):
		t.Fatalf("trimmed buffer of %d bytes has room for %d", len(p.buf), cap(p.buf))
	case len(p.buf) < kept || len(p.buf) > maxPackedRecord*kept:
		t.Fatalf("%d records packed into %d bytes, want %d to %d", kept, len(p.buf), kept, maxPackedRecord*kept)
	}
	recs := unpack(p, int64(kept))
	if all != nil {
		recs = all[p.first:p.n]
	}
	if want := layout(recs, int64(kept)); !bytes.Equal(p.buf, want) {
		t.Fatalf("trimmed records %d…%d are\n%x\nnot packed from the zero packer\n%x", p.first, p.n-1, p.buf, want)
	}
}

// TestEventLogPacked: trimming a closed log, wrapped or not, moves the
// records it keeps into one buffer sized to them with one allocation, and
// the log stays what the reference says it is — when read, and when
// appended to after the trim, past the next growth, the wrap and the drop.
func TestEventLogPacked(t *testing.T) {
	for _, tc := range []struct{ capacity, before, kept int }{
		{8192, 1, 1}, {8192, 18, 18}, {8192, 64, 64}, {8192, 300, 300}, {20, 18, 18}, {20, 20, 20}, {20, 25, 20},
	} {
		filled := func() (*pair, *rand.Rand) {
			rng := rand.New(rand.NewSource(int64(tc.before)))
			p := newPair(tc.capacity)
			for i := 0; i < tc.before; i++ {
				p.appendRandom(rng)
			}
			p.close()
			return p, rng
		}
		logs := make([]*eventLog, 4)
		for i := range logs {
			p, _ := filled()
			logs[i] = p.log
		}
		if n := testing.AllocsPerRun(len(logs)-1, func() { logs[0].trim(); logs = logs[1:] }); n != 1 {
			t.Fatalf("cap %d, %d records: trim made %v allocations, want 1", tc.capacity, tc.before, n)
		}

		p, rng := filled()
		p.log.trim()
		checkPacked(t, p.log)
		if got := len(p.log.buf); got < tc.kept || got > maxPackedRecord*tc.kept {
			t.Fatalf("cap %d, %d records: %d packed bytes, want %d kept records' worth", tc.capacity, tc.before, got, tc.kept)
		}
		check := func(when string) {
			t.Helper()
			for _, from := range []int64{0, int64(tc.before) / 2, p.log.len()} {
				got, _ := drain(p.log.reader(from))
				want, _, _ := p.ref.read(from)
				if got != want {
					t.Fatalf("cap %d, %d records, %s, from %d:\n got: %s\nwant: %s", tc.capacity, tc.before, when, from, got, want)
				}
			}
		}
		check("trimmed")
		for i := 0; i < 2*tc.capacity && i < 600; i++ {
			p.appendRandom(rng)
		}
		check("appended after the trim")
	}
}

// stepClock reads one microsecond later at every reading, so the times a
// job records, and the bytes their deltas pack into, are the same on any
// host and under the race detector.
type stepClock struct{ n atomic.Int64 }

func (c *stepClock) Now() time.Time {
	return clock.Epoch.Add(time.Duration(c.n.Add(1)) * time.Microsecond)
}

// TestPackedLogBytesPerRecord: what a finished job's packed events and gauge
// series cost, on a clock that steps a microsecond a reading. Packed against
// the record just before each, a 500-batch montecarlo job at LP 1 took 6.1
// bytes a record, a one-cell sleepgrid job's 18 records 75 bytes, and a
// 500-task job's gauge series 4.0 bytes a sample. Packed against the last
// record of the same where, and with the gauge's active delta sharing a
// byte with an "LP unchanged" bit: 3.0, 70 and 3.0.
func TestPackedLogBytesPerRecord(t *testing.T) {
	srv := New(Config{Budget: 4, Clock: &stepClock{}})
	defer srv.Close()
	run := func(spec SubmitSpec) *job {
		j, err := srv.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		return finish(t, j)
	}

	fan := run(SubmitSpec{Skeleton: "montecarlo", Params: skandium.Params{"samples": 500, "batches": 500}, MaxLP: 1})
	records, bytes := fan.log.len(), len(outcomeOf(t, fan).events.buf)
	if records != 2006 {
		t.Fatalf("a 500-batch job logged %d records, want 2006", records)
	}
	t.Logf("500-batch montecarlo at LP 1: %d records in %d bytes, %.2f a record", records, bytes, float64(bytes)/float64(records))
	if float64(bytes) > 4.5*float64(records) {
		t.Errorf("%d records packed into %d bytes, more than 4.5 a record", records, bytes)
	}
	samples, gauges := len(fan.samples(srv.startTime)), len(outcomeOf(t, fan).gauges)
	t.Logf("its gauge series: %d samples in %d bytes, %.2f a sample", samples, gauges, float64(gauges)/float64(samples))
	if samples < 1000 || float64(gauges) > 3.6*float64(samples) {
		t.Errorf("%d gauge samples packed into %d bytes, want at least 1000 samples at at most 3.6 bytes each", samples, gauges)
	}

	tiny := run(SubmitSpec{Skeleton: "sleepgrid", Params: skandium.Params{"k": 1, "m": 1, "cell_ms": 0.05}})
	tinyBytes := len(outcomeOf(t, tiny).events.buf)
	t.Logf("one-cell sleepgrid: %d records in %d bytes", tiny.log.len(), tinyBytes)
	if n := tiny.log.len(); n != 18 || tinyBytes > 81 {
		t.Errorf("a one-cell job's %d records packed into %d bytes, want 18 in at most 81", n, tinyBytes)
	}
}

// TestEventLogFollowers: several followers attached at different cursors
// while a producer appends, trims at random points, and closes and trims.
// Each must see every sequence number from its cursor on exactly once and in
// order — delivered, or accounted for by a truncation marker — each
// delivered line must be the reference's rendering of that record, and each
// must reach EOF on close.
func TestEventLogFollowers(t *testing.T) {
	const total = 3000
	for _, capacity := range []int{1, 4, 300, 8192} {
		p := newPair(capacity)
		// Render the reference up front, before its ring can drop anything.
		full := &refLog{cap: total}
		rng := rand.New(rand.NewSource(int64(capacity)))
		events := make([]*event.Event, total)
		for i := range events {
			events[i] = randomEvent(rng, p.start)
			full.append(refRecord(p.start, events[i]))
		}
		all, _, _ := full.read(0)
		lines := strings.SplitAfter(all, "\n")

		starts := []int64{0, 0, 100, 1 << 62} // the last one: past the end, as bench/ follows
		outs := make([]bytes.Buffer, len(starts))
		var wg sync.WaitGroup
		for i, from := range starts {
			rd := p.log.reader(from)
			wg.Add(1)
			go func() {
				defer wg.Done()
				rd.stream(context.Background(), &outs[i], func() {}, true)
			}()
		}
		for i, e := range events {
			p.hook.Handler(e)
			if rng.Intn(64) == 0 {
				// Followers behind go on in the trimmed buffer; the next
				// append grows it again.
				p.log.trim()
			}
			if i%97 == 0 {
				time.Sleep(200 * time.Microsecond) // let followers catch up and park
			}
		}
		p.log.close()
		p.log.trim()
		wg.Wait() // EOF for everyone, or the test times out

		for i := range starts {
			// A cursor past the end attaches at the end as it is at the first
			// read, somewhere in the stream: learn it from the first line.
			next := int64(-1)
			if starts[i] == 0 {
				next = 0
			}
			for _, line := range strings.SplitAfter(outs[i].String(), "\n") {
				if line == "" {
					continue
				}
				var rec eventRecord
				if err := json.Unmarshal([]byte(line), &rec); err != nil {
					t.Fatalf("cap %d follower %d: bad line %q: %v", capacity, i, line, err)
				}
				if next < 0 {
					next = rec.Seq - rec.Truncated
				}
				if rec.Truncated > 0 {
					if rec.Seq != next+rec.Truncated {
						t.Fatalf("cap %d follower %d: marker at seq %d for %d lost, cursor was %d",
							capacity, i, rec.Seq, rec.Truncated, next)
					}
					next = rec.Seq
					continue
				}
				if rec.Seq != next {
					t.Fatalf("cap %d follower %d: got seq %d, want %d", capacity, i, rec.Seq, next)
				}
				if line != lines[rec.Seq] {
					t.Fatalf("cap %d follower %d seq %d:\n got %q\nwant %q", capacity, i, rec.Seq, line, lines[rec.Seq])
				}
				next++
			}
			if starts[i] == 0 && next != total {
				t.Fatalf("cap %d follower %d: stream ended at seq %d, want %d", capacity, i, next, total)
			}
			if next > total {
				t.Fatalf("cap %d follower %d: cursor %d past the end %d", capacity, i, next, total)
			}
		}
		if n := len(p.log.parked); n != 0 {
			t.Fatalf("cap %d: %d followers still parked after close", capacity, n)
		}
		assertNoFollowers(t, p.log)
	}
}

// assertNoFollowers: the log holds no follower, parked or quiet, and no
// wake channel either, not even in the slots past the lists' length.
func assertNoFollowers(t *testing.T, l *eventLog) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.parked) != 0 || len(l.quiet) != 0 {
		t.Fatalf("%d followers parked and %d quiet, want none", len(l.parked), len(l.quiet))
	}
	for i, ch := range l.parked[:cap(l.parked)] {
		if ch != nil {
			t.Fatalf("parked slot %d past the length still holds a wake channel", i)
		}
	}
	for i, q := range l.quiet[:cap(l.quiet)] {
		if q.wake != nil {
			t.Fatalf("quiet slot %d past the length still holds a wake channel", i)
		}
	}
}

// waitUntil polls cond under the log's lock until it holds, for at most
// five seconds.
func waitUntil(t *testing.T, l *eventLog, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; {
		l.mu.Lock()
		ok := cond()
		l.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// quietFollow starts a follower of p's log from the start whose quiet wait
// lasts every. Its output may be read once done is closed; flushes receives
// the output's length at each flush, buffered past the three flushes a test
// here makes at most, so the follower never blocks on it.
func quietFollow(ctx context.Context, p *pair, every time.Duration) (rd *logReader, out *bytes.Buffer, flushes chan int, done chan struct{}) {
	rd, out = p.log.reader(0), new(bytes.Buffer)
	rd.every = every
	flushes, done = make(chan int, 16), make(chan struct{})
	go func() {
		rd.stream(ctx, out, func() { flushes <- out.Len() }, true)
		close(done)
	}()
	return rd, out, flushes, done
}

// within fails the test unless ch delivers within ten seconds, far below
// the hour-long quiet waits the tests below set.
func within[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: still waiting after 10 s", what)
		panic("unreachable")
	}
}

// TestEventLogQuietClose: the first record after an idle spell is flushed
// at once, and a close during the quiet wait that follows ends the stream
// at once too. The wait would last an hour, so only close's wake-up can end
// it; afterwards the log keeps neither a reader nor a channel.
func TestEventLogQuietClose(t *testing.T) {
	p := newPair(8)
	_, out, flushes, done := quietFollow(context.Background(), p, time.Hour)
	waitUntil(t, p.log, "parked", func() bool { return len(p.log.parked) == 1 })
	rng := rand.New(rand.NewSource(1))
	p.appendRandom(rng)
	within(t, flushes, "the first record after an idle spell")
	waitUntil(t, p.log, "went quiet", func() bool { return len(p.log.quiet) == 1 })
	p.appendRandom(rng) // held by the quiet wait
	p.close()
	within(t, done, "a close during a quiet wait")
	if want, _, _ := p.ref.read(0); out.String() != want {
		t.Fatalf("stream:\n got %s\nwant %s", out, want)
	}
	assertNoFollowers(t, p.log)
}

// TestEventLogQuietThenPark: a quiet wait that times out with nothing new
// parks the follower again, and a record that arrives then is flushed
// before any timer could fire — the next quiet wait is set to an hour
// before the record is appended.
func TestEventLogQuietThenPark(t *testing.T) {
	p := newPair(8)
	rd, out, flushes, done := quietFollow(context.Background(), p, time.Millisecond)
	rng := rand.New(rand.NewSource(2))
	p.appendRandom(rng)
	first := within(t, flushes, "the first record")
	waitUntil(t, p.log, "parked after its quiet wait", func() bool { return len(p.log.parked) == 1 && len(p.log.quiet) == 0 })
	// The follower reads every only after the append below wakes it.
	rd.every = time.Hour
	p.appendRandom(rng)
	if second := within(t, flushes, "a record appended to a parked follower"); second <= first {
		t.Fatalf("the second flush wrote nothing new: %d bytes, then %d", first, second)
	}
	p.close()
	within(t, done, "close")
	if want, _, _ := p.ref.read(0); out.String() != want {
		t.Fatalf("stream:\n got %s\nwant %s", out, want)
	}
	assertNoFollowers(t, p.log)
}

// TestEventLogLeave: a follower whose client goes away withdraws from the
// parked list, and a later append neither blocks nor wakes anybody.
func TestEventLogLeave(t *testing.T) {
	p := newPair(8)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		p.log.reader(0).stream(ctx, io.Discard, func() {}, true)
		close(done)
	}()
	for deadline := time.Now().Add(5 * time.Second); ; {
		p.log.mu.Lock()
		n := len(p.log.parked)
		p.log.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower never parked")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done
	if n := len(p.log.parked); n != 0 {
		t.Fatalf("%d parked after the client left", n)
	}
	p.appendRandom(rand.New(rand.NewSource(1)))

	// A quiet follower leaves the quiet list the same way, and its slot is
	// cleared.
	ctx, cancel = context.WithCancel(context.Background())
	_, _, flushes, done := quietFollow(ctx, p, time.Hour)
	within(t, flushes, "the backlog")
	waitUntil(t, p.log, "went quiet", func() bool { return len(p.log.quiet) == 1 })
	cancel()
	within(t, done, "a client leaving during a quiet wait")
	assertNoFollowers(t, p.log)
	p.appendRandom(rand.New(rand.NewSource(1)))
}

// TestEventLogFlushesCounted: skelrund_event_flushes_total counts every
// flush of every events stream, exactly: a stream of a finished job
// flushes once if it has records to send, and not at all otherwise.
func TestEventLogFlushesCounted(t *testing.T) {
	_, ts := newTestDaemon(t, Config{Budget: 2})
	id := runTiny(t, ts.URL)
	flushes := func() float64 {
		t.Helper()
		v, ok := scrapeMetrics(t, ts.URL)["skelrund_event_flushes_total"]
		if !ok {
			t.Fatal("/metrics lacks skelrund_event_flushes_total")
		}
		return v
	}
	base := flushes()
	if base < 1 {
		t.Fatalf("following a job flushed %v times, want at least 1", base)
	}
	for _, tc := range []struct {
		query string
		adds  float64
	}{{"", 1}, {"?follow=1", 1}, {"?from=4611686018427387904", 0}, {"?follow=1&from=4611686018427387904", 0}} {
		getNDJSON(t, ts.URL+"/jobs/"+id+"/events"+tc.query)
		if got := flushes(); got != base+tc.adds {
			t.Fatalf("/events%s of a finished job: flushes went from %v to %v, want +%v", tc.query, base, got, tc.adds)
		}
		base += tc.adds
	}
}

// FuzzEventRecordNDJSON holds the hand-written encoder to encoding/json,
// byte for byte, over skeleton events (every kind, when, where; the
// omitempty fields; error strings that need escaping), the daemon's
// free-text records, and the truncation marker.
func FuzzEventRecordNDJSON(f *testing.F) {
	for i, s := range awkward {
		f.Add(int64(i)*1234567, uint8(i), uint8(i), uint8(i), int64(i), int64(i)-1, i%3, i%2, i%4, i-1, s, false)
		f.Add(int64(i), uint8(0), uint8(1), uint8(6), int64(1)<<40, int64(-1), 0, -1, 0, 1<<20, s, true)
	}
	// Times either side of 10¹⁵ ns, where t_ms leaves the integer path, and
	// negative ones under a millisecond. kind 255 is reduced onto the node
	// table like any other; TestEventLogRenderFallbacks renders kinds
	// outside it.
	for _, ns := range []int64{1e15 - 1, -(1e15 - 1), 1e15, -1e15, -500_000, -1, 1} {
		f.Add(ns, uint8(6), uint8(1), uint8(1), int64(3), int64(-1), 500, 0, 0, 1, "", false)
		f.Add(ns, uint8(255), uint8(0), uint8(0), int64(0), int64(0), 0, 0, 0, 0, "", true)
	}
	f.Fuzz(func(t *testing.T, ns int64, kind, when, where uint8, index, parent int64,
		card, branch, iter, worker int, text string, free bool) {
		start := time.Unix(1700000000, 0)
		at := start.Add(time.Duration(ns))
		l := newEventLog(4, start)
		var want eventRecord
		if free {
			l.appendText(at, text, "cluster", text, "cluster", text)
			want = eventRecord{
				TMS: float64(at.Sub(start)) / float64(time.Millisecond),
				Ev:  text, Kind: "cluster", When: text, Where: "cluster", Err: text,
			}
		} else {
			fits := func(v int) int { return int(metrics.Clamp32(v)) }
			e := &event.Event{
				Node: kindNodes[int(kind)%len(kindNodes)], When: event.When(when % 2),
				Where: event.Where(where % uint8(event.Fault+1)), Index: index, Parent: parent,
				Card: fits(card), Branch: fits(branch), Iter: fits(iter), Worker: fits(worker), Time: at,
			}
			if text != "" {
				e.Err = errors.New(text)
			}
			l.listener().Handler(e)
			want = refRecord(start, e)
		}
		wantLine, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := drain(l.reader(0)); got != string(wantLine)+"\n" {
			t.Fatalf("record:\n got %s\nwant %s", got, wantLine)
		}
		wantLine, _ = json.Marshal(eventRecord{Seq: index, Ev: "truncated", Truncated: parent})
		if got := appendTruncated(nil, index, parent); parent != 0 && string(got) != string(wantLine)+"\n" {
			t.Fatalf("marker:\n got %s\nwant %s", got, wantLine)
		}
	})
}

// TestEventLogRenderFallbacks: records outside the precomputed heads —
// kinds and wheres no skeleton event has, times from 10¹⁵ ns on — render
// what encoding/json makes of them, as do the heads' edges.
func TestEventLogRenderFallbacks(t *testing.T) {
	for _, tc := range []struct {
		rec  record
		want eventRecord
	}{
		{record{t: 1500, index: 3, kind: 9, when: 1, where: 1},
			eventRecord{Ev: "Kind(9)@as(3)", Kind: "Kind(9)", When: "after", Where: "split", Index: 3}},
		{record{t: -1, index: -4, kind: 255, where: 7, worker: -1},
			eventRecord{Ev: "Kind(255)@b(-4)", Kind: "Kind(255)", When: "before", Where: "Where(7)", Index: -4, Worker: -1}},
		{record{t: 1e15, kind: uint8(skel.DaC), where: uint8(event.Fault)},
			eventRecord{Ev: "d&c@bf(0)", Kind: "d&c", When: "before", Where: "fault"}},
		{record{t: -1e15 - 7, kind: uint8(skel.Map), when: 1, where: uint8(event.Merge), index: 1 << 40},
			eventRecord{Ev: "map@am(1099511627776)", Kind: "map", When: "after", Where: "merge", Index: 1 << 40}},
		{record{t: 1e15 - 1, kind: uint8(skel.Seq), parent: -1},
			eventRecord{Ev: "seq@b(0)", Kind: "seq", When: "before", Where: "skeleton", Parent: -1}},
		{record{t: math.MinInt64, kind: uint8(skel.Fork), when: 1, where: uint8(event.NestedSkel)},
			eventRecord{Ev: "fork@an(0)", Kind: "fork", When: "after", Where: "nested"}},
	} {
		tc.want.Seq = 5
		tc.want.TMS = float64(tc.rec.t) / float64(time.Millisecond)
		want, err := json.Marshal(tc.want)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendRecord(nil, 5, &tc.rec, nil); string(got) != string(want)+"\n" {
			t.Errorf("%+v:\n got %s\nwant %s", tc.rec, got, want)
		}
	}
}

// packedRecordSize is the bytes one record takes in FuzzEventLogPack's
// input: t, index, parent, card, branch, iter, worker, kind, when, where,
// side, little-endian.
const packedRecordSize = 3*8 + 4*4 + 4

// appendRawRecord appends rec in FuzzEventLogPack's input form.
func appendRawRecord(dst []byte, rec record) []byte {
	for _, v := range []int64{rec.t, rec.index, rec.parent} {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	for _, v := range []int32{rec.card, rec.branch, rec.iter, rec.worker} {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
	}
	return append(dst, rec.kind, rec.when, rec.where, rec.side)
}

// rawRecords reads FuzzEventLogPack's input into records within the domain
// of the packed tag: when < 2, where < 8, side < 3.
func rawRecords(data []byte) []record {
	var recs []record
	for ; len(data) >= packedRecordSize; data = data[packedRecordSize:] {
		le := binary.LittleEndian
		recs = append(recs, record{
			t: int64(le.Uint64(data)), index: int64(le.Uint64(data[8:])), parent: int64(le.Uint64(data[16:])),
			card: int32(le.Uint32(data[24:])), branch: int32(le.Uint32(data[28:])),
			iter: int32(le.Uint32(data[32:])), worker: int32(le.Uint32(data[36:])),
			kind: data[40], when: data[41] % 2, where: data[42] % 8, side: data[43] % 3,
		})
	}
	return recs
}

// packSeeds returns FuzzEventLogPack's seed records: edge, records at the
// extremes of every field and tag, and fan, a fan-out on two workers.
func packSeeds() (edge, fan []record) {
	edge = []record{
		{t: math.MaxInt64, index: math.MinInt64, parent: math.MaxInt64, card: math.MinInt32,
			branch: math.MaxInt32, iter: math.MinInt32, worker: math.MaxInt32, kind: 255, when: 1, where: 7, side: 2},
		{t: math.MinInt64, index: math.MaxInt64, parent: math.MinInt64, card: math.MaxInt32,
			branch: math.MinInt32, iter: math.MaxInt32, worker: math.MinInt32},
		{t: 1500, index: 3, parent: -1, card: 500, worker: 1, kind: uint8(skel.Map), when: 1, where: uint8(event.Split)},
		{t: 900, index: 4, parent: 3, worker: -1, kind: uint8(skel.DaC), side: sideErr},
		{t: -5, side: sideText},
	}
	// Each child's NestedSkel Before, Skeleton Before and After and
	// NestedSkel After, one worker's records alternating with the other's.
	for i := int32(0); i < 8; i += 2 {
		var task [2][4]record
		for w := range task {
			b := i + int32(w)
			t, index := int64(1000*(b+1)), int64(b+1)
			task[w] = [4]record{
				{t: t, parent: -1, branch: 7 - b, worker: int32(w), kind: uint8(skel.Map), where: uint8(event.NestedSkel)},
				{t: t + 120, index: index, worker: int32(w), kind: uint8(skel.Seq)},
				{t: t + 1500, index: index, worker: int32(w), kind: uint8(skel.Seq), when: uint8(event.After)},
				{t: t + 1500, parent: -1, branch: 7 - b, worker: int32(w), kind: uint8(skel.Map), when: uint8(event.After), where: uint8(event.NestedSkel)},
			}
		}
		for k := range task[0] {
			fan = append(fan, task[0][k], task[1][k])
		}
	}
	return edge, fan
}

// FuzzEventLogPack: any sequence of records — extreme int64 and int32
// values, time running backwards, every tag — packs to at most
// maxPackedRecord bytes a record and decodes to itself exactly; and a log
// of them at the input's capacity, trimmed after the appends the input's
// bits pick, reads after every append what a twin log too large ever to
// evict or drop says it should: a follower that kept up the same bytes, a
// reader from the start and one from the middle the twin's records from
// the oldest retained one on, behind a truncation marker for the rest.
func FuzzEventLogPack(f *testing.F) {
	edge, fan := packSeeds()
	var all []byte
	for _, rec := range edge {
		all = appendRawRecord(all, rec)
		f.Add(appendRawRecord(nil, rec), uint16(1), uint64(1))
	}
	f.Add(all, uint16(1), uint64(0))
	f.Add(all, uint16(2), uint64(0b10110))
	f.Add(all, uint16(8192), uint64(1<<4))
	var fanRaw []byte
	for _, rec := range fan {
		fanRaw = appendRawRecord(fanRaw, rec)
	}
	f.Add(fanRaw, uint16(8192), uint64(0))
	f.Add(fanRaw, uint16(5), uint64(1<<9|1<<20))
	f.Fuzz(func(t *testing.T, data []byte, capacity uint16, trims uint64) {
		recs := rawRecords(data)
		var buf []byte
		var enc, dec packer
		for i := range recs {
			n := len(buf)
			buf = enc.append(buf, &recs[i])
			if size := len(buf) - n; size > maxPackedRecord {
				t.Fatalf("record %d packs into %d bytes, more than %d: %+v", i, size, maxPackedRecord, recs[i])
			}
		}
		var prev record
		for i, off := 0, 0; i < len(recs); i++ {
			off += dec.decode(buf[off:], &prev)
			if prev != recs[i] {
				t.Fatalf("record %d decodes to %+v, want %+v", i, prev, recs[i])
			}
			if i == len(recs)-1 && off != len(buf) {
				t.Fatalf("decoding stopped at byte %d of %d", off, len(buf))
			}
		}

		start := time.Unix(1700000000, 0)
		l, twin := newEventLog(int(capacity), start), newEventLog(len(recs)+1, start)
		follower, twinFollower := l.reader(0), twin.reader(0)
		read := func(rd *logReader) string {
			out, _ := drain(rd)
			return out
		}
		side := sideRecord{ev: "ev", kind: "cluster", when: "w", where: "cluster", err: "boom"}
		for i, rec := range recs {
			l.append(rec, side)
			twin.append(rec, side)
			if trims>>(i%64)&1 != 0 {
				l.trim()
				checkPacked(t, l)
			}
			if got, want := read(follower), read(twinFollower); got != want {
				t.Fatalf("after record %d, the follower reads\n%s\nwant\n%s", i, got, want)
			}
			base := l.droppedCount()
			for _, from := range []int64{0, l.len() / 2} {
				var want []byte
				if from < base {
					want = appendTruncated(nil, base, base-from)
				}
				want = append(want, read(twin.reader(max(from, base)))...)
				if got := read(l.reader(from)); got != string(want) {
					t.Fatalf("after record %d, a read from %d gives\n%s\nwant\n%s", i, from, got, want)
				}
			}
		}
	})
}

// steadyLog returns a log whose ring has wrapped, and the hook and a
// reusable event to append with.
func steadyLog(capacity int) (*eventLog, event.Listener, *event.Event) {
	l := newEventLog(capacity, time.Unix(1700000000, 0))
	e := &event.Event{
		Node: kindNodes[6], When: event.After, Where: event.Split, Index: 3, Card: 500,
		Worker: 1, Time: l.start.Add(1500 * time.Microsecond),
	}
	hook := l.listener()
	for i := 0; i < capacity+1; i++ {
		hook.Handler(e)
	}
	return l, hook, e
}

// TestEventLogAppendDoesNotAllocate: once the ring is full, recording an
// event allocates nothing, amortized: one drop copy per cap appends — with
// nobody following and with a follower parked (waking it is a send on its
// own channel).
func TestEventLogAppendDoesNotAllocate(t *testing.T) {
	l, hook, e := steadyLog(1024)
	if n := testing.AllocsPerRun(2000, func() { hook.Handler(e) }); n != 0 {
		t.Fatalf("append with no follower: %v allocs/op, want 0", n)
	}
	rd := l.reader(1 << 62)
	n := testing.AllocsPerRun(2000, func() {
		if out, _ := rd.next(waitPark); len(out) != 0 {
			t.Fatal("reader past the end got records before the append")
		}
		hook.Handler(e)
		<-rd.wake
		rd.next(waitNone)
	})
	if n != 0 {
		t.Fatalf("append waking a parked follower, and its read: %v allocs/op, want 0", n)
	}

	// A follower in its quiet wait: each append checks its backlog and
	// allocates nothing, and the one that fills its batch wakes it.
	rd = l.reader(1 << 62)
	if out, _ := rd.next(waitQuiet); len(out) != 0 {
		t.Fatal("reader past the end got records before the append")
	}
	if n := testing.AllocsPerRun(readBatch-2, func() { hook.Handler(e) }); n != 0 {
		t.Fatalf("append beside a quiet follower: %v allocs/op, want 0", n)
	}
	if len(l.quiet) != 1 || len(rd.wake) != 0 {
		t.Fatalf("one record short of a batch: %d quiet, %d wake tokens; want 1 quiet and no token", len(l.quiet), len(rd.wake))
	}
	hook.Handler(e)
	if len(l.quiet) != 0 || len(rd.wake) != 1 {
		t.Fatalf("a full batch: %d quiet, %d wake tokens; want none quiet and a token", len(l.quiet), len(rd.wake))
	}
}

func BenchmarkEventLogAppend(b *testing.B) {
	b.Run("no_follower", func(b *testing.B) {
		_, hook, e := steadyLog(8192)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			hook.Handler(e)
		}
	})
	b.Run("parked_follower", func(b *testing.B) {
		l, hook, e := steadyLog(8192)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.reader(1<<62).stream(context.Background(), io.Discard, func() {}, true)
		}()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			hook.Handler(e)
		}
		b.StopTimer()
		l.close()
		wg.Wait()
	})
}

// BenchmarkEventLogFollow decodes and renders one fanout_fine job's worth
// of records (2006) from a finished, trimmed log into io.Discard.
func BenchmarkEventLogFollow(b *testing.B) {
	const perJob = 2006
	l := newEventLog(8192, time.Unix(1700000000, 0))
	e := &event.Event{
		Node: kindNodes[6], When: event.After, Where: event.Split, Card: 500,
		Worker: 1, Time: l.start.Add(1500 * time.Microsecond),
	}
	hook := l.listener()
	for i := 0; i < perJob; i++ {
		e.Index = int64(i)
		hook.Handler(e)
	}
	l.close()
	l.trim()
	rd := l.reader(0)
	rd.stream(context.Background(), io.Discard, func() {}, true) // size the reader's scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.from = 0
		rd.stream(context.Background(), io.Discard, func() {}, true)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/perJob, "record_ns")
}
