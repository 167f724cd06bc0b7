package server

import (
	"context"
	"encoding/binary"
	"io"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"skandium/internal/event"
	"skandium/internal/metrics"
	"skandium/internal/skel"
)

// record is one job event as the log takes it and a reader decodes it:
// free of pointers, and stored as its difference from the records before it
// (packer.append). Everything a reader shows — the ∆@notation, the kind,
// when and where names, t_ms — is rendered from it on read.
type record struct {
	t      int64 // nanoseconds since the job was created
	index  int64
	parent int64
	card   int32
	branch int32
	iter   int32
	worker int32
	kind   uint8 // skel.Kind
	when   uint8 // event.When
	where  uint8 // event.Where
	side   uint8 // sideNone, or what the entry of eventLog.side with this seq holds
}

const (
	sideNone uint8 = iota
	sideErr        // a skeleton event that carried an error: side.err
	sideText       // not a skeleton event: ev, kind, when, where, err are all in side
)

// sideRecord is the pointerful part of the few records that have one:
// error strings of failed muscles, and the daemon's own free-text records
// (brownout, cluster routing, node transitions, policy fallback).
type sideRecord struct {
	seq                        int64
	ev, kind, when, where, err string
}

// packedEvents are a log's retained records: first…n-1 packed into buf,
// from the zero packer at seq first and again at seq first+cap, and the
// side entries of those that have one. It is what a reader decodes, and all
// that a frozen job keeps of its log: at most cap records, so one run.
type packedEvents struct {
	n     int64 // records ever appended; seq n-1 is the newest
	first int64 // seq of buf's first record, at most max(0, n-cap)
	// buf holds records first…n-1. Bytes below len(buf) are never written
	// again: a drop or a trim copies into a new buffer.
	buf  []byte
	side []sideRecord // of the retained records whose side != sideNone, by seq
}

// eventLog is a bounded ring of a job's events with follow support. The
// listener appends from worker goroutines, each record packed against the
// ones before it into one pointer-free buffer; NDJSON handlers take the
// buffer under the lock and decode and render it outside it (see
// logReader). The packer restarts every cap records, so the buffer
// holds at most two segments, first… and first+cap…, each packed from the
// zero packer. The append that would hold 2·cap records drops the older
// one: the newer segment keeps its bytes.
type eventLog struct {
	start time.Time
	cap   int64

	mu sync.Mutex
	packedEvents
	// pack is the packer after record n-1, what the next one is packed
	// against; mid is where record first+cap starts in buf, once it is there.
	pack   packer
	mid    int
	closed bool
	// parked holds the wake channel of every follower that found nothing to
	// read and went to sleep. append and close signal and clear it; with
	// nobody parked an append touches no channel at all.
	parked []chan struct{}
	// quiet holds the followers that have just flushed and wait for close,
	// a full batch past their cursor or flushEvery, whichever comes first.
	// An append signals only those whose batch it fills.
	quiet []quietFollower
}

// quietFollower is a follower in its quiet wait: its wake channel, and the
// n at which readBatch records wait past its cursor.
type quietFollower struct {
	wake chan struct{}
	full int64
}

func newEventLog(capacity int, start time.Time) *eventLog {
	if capacity < 1 {
		capacity = 1
	}
	return &eventLog{start: start, cap: int64(capacity)}
}

// listener adapts the log to the stream's event hook. It copies what it
// keeps (the *Event is recycled after the call) and builds no strings: a
// failed muscle's error text is the one allocation, on error events only.
func (l *eventLog) listener() event.Listener {
	return event.Func(func(e *event.Event) any {
		rec := record{
			t:      int64(e.Time.Sub(l.start)),
			index:  e.Index,
			parent: e.Parent,
			card:   metrics.Clamp32(e.Card),
			branch: metrics.Clamp32(e.Branch),
			iter:   metrics.Clamp32(e.Iter),
			worker: metrics.Clamp32(e.Worker),
			kind:   uint8(e.Node.Kind()),
			when:   uint8(e.When),
			where:  uint8(e.Where),
		}
		var side sideRecord
		if e.Err != nil {
			rec.side, side.err = sideErr, e.Err.Error()
		}
		l.append(rec, side)
		return e.Param
	})
}

// appendText records something the daemon itself has to say about the job
// at instant at (not a skeleton event: no index, parent or worker).
func (l *eventLog) appendText(at time.Time, ev, kind, when, where, err string) {
	l.append(record{t: int64(at.Sub(l.start)), side: sideText},
		sideRecord{ev: ev, kind: kind, when: when, where: where, err: err})
}

// append stores rec under the next sequence number, evicting the oldest
// record once the ring is full, and wakes the followers that are parked
// and the quiet ones whose batch it fills. The record at seq first+cap
// starts a segment from the zero packer. At 2·cap records the older
// segment goes: the newer one's bytes move into a buffer with room for as
// many again, so at a steady record size the next cap appends grow nothing.
func (l *eventLog) append(rec record, side sideRecord) {
	l.mu.Lock()
	switch l.n - l.first {
	case 2 * l.cap:
		kept := l.buf[l.mid:]
		l.buf = append(make([]byte, 0, 2*len(kept)), kept...)
		l.first += l.cap
		fallthrough
	case l.cap:
		l.pack, l.mid = packer{}, len(l.buf)
	}
	l.buf = l.pack.append(l.buf, &rec)
	if rec.side != sideNone {
		side.seq = l.n
		l.side = append(l.side, side)
	}
	l.n++
	if len(l.side) > 0 && l.side[0].seq < l.n-l.cap {
		// The record just evicted is the oldest, and so is its entry.
		l.side[0] = sideRecord{}
		l.side = l.side[1:]
	}
	l.wakeLocked()
	l.mu.Unlock()
}

// wakeLocked signals and withdraws every parked follower, and every quiet
// one whose batch is full or whose log is closed. Withdrawn slots are
// cleared, so a list keeps no channel of a follower that has gone.
func (l *eventLog) wakeLocked() {
	for i, ch := range l.parked {
		signal(ch)
		l.parked[i] = nil
	}
	l.parked = l.parked[:0]
	for i := 0; i < len(l.quiet); {
		if l.n < l.quiet[i].full && !l.closed {
			i++
			continue
		}
		signal(l.quiet[i].wake)
		l.quiet = slices.Delete(l.quiet, i, i+1)
	}
}

// signal hands a follower its wake token. A wake channel holds one token and
// a reader waits only after taking it, so the channel has room; the default
// arm keeps even a broken invariant from blocking a worker.
func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// close marks the log complete (job finished) and wakes all followers.
func (l *eventLog) close() {
	l.mu.Lock()
	l.closed = true
	l.wakeLocked()
	l.mu.Unlock()
}

// freeze closes the log and returns the records it keeps, trimmed: what a
// frozen job keeps of its log. An append after it does not reach them.
func (l *eventLog) freeze() packedEvents {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	l.wakeLocked()
	l.trimLocked()
	p := l.packedEvents
	if len(p.side) == 0 {
		p.side = nil
	} else if cap(p.side) > len(p.side) {
		p.side = slices.Clone(p.side)
	}
	return p
}

// trim drops the evicted records and the append slack, so the buffer costs
// what its retained records carry: 3.0 bytes each in a 500-task fan-out,
// whose gauge series (metrics.Recorder.Trim) takes 3.0 bytes a sample. A
// log appended to after that grows again.
func (l *eventLog) trim() {
	l.mu.Lock()
	l.trimLocked()
	l.mu.Unlock()
}

// trimLocked is trim for a caller that holds l.mu. The retained records,
// seq max(first, n-cap) on, move into a buffer sized to them: as they are
// with none evicted, else re-packed from the zero packer in two passes,
// one to size the buffer and one to fill it. Either way the buffer is one
// run from the zero packer, and the append that reaches seq first+cap
// restarts the packer.
func (l *eventLog) trimLocked() {
	switch base := max(l.first, l.n-l.cap); {
	case base > l.first:
		// base ≤ first+cap, where the decoders restart.
		restart := l.first + l.cap
		var dec packer
		var rec record
		off := 0
		for seq := l.first; seq < base; seq++ {
			off += dec.decode(l.buf[off:], &rec)
		}
		var scratch [maxPackedRecord]byte
		sizer, enc, size := dec, packer{}, 0
		for seq, at := base, off; seq < l.n; seq++ {
			if seq == restart {
				sizer = packer{}
			}
			at += sizer.decode(l.buf[at:], &rec)
			size += len(enc.append(scratch[:0], &rec))
		}
		buf := make([]byte, 0, size)
		enc = packer{}
		for seq := base; seq < l.n; seq++ {
			if seq == restart {
				dec = packer{}
			}
			off += dec.decode(l.buf[off:], &rec)
			buf = enc.append(buf, &rec)
		}
		l.buf, l.first = buf, base
	case cap(l.buf) > len(l.buf):
		l.buf = append(make([]byte, 0, len(l.buf)), l.buf...)
	}
}

// packer is the state a record is packed against, and decoded with: the
// record just before it, the last record of each where, and the kind, side
// and mask of the last record of each when and where. An encoder and a
// decoder that start from the zero packer and see the same records hold the
// same packer after each one.
//
// A record's t is packed against the record just before it. Its index,
// parent, card, branch, iter and worker are packed against the last record
// with its where. In a fan-out the map's NestedSkel records and the child's
// Skeleton records alternate, and each repeats the last of its own where
// but for a step in index or branch. The record just before is the base
// instead when the where is new, and when it shares the record's parent
// and the where's last record does not: in a nested fan-out that last
// record can sit a level away.
type packer struct {
	prev  record
	bases [8]record // by where; bases[w] holds a record once seen bit w is set
	seen  uint8
	heads [2][8]packHead // by when and where
}

// packHead is what a record's header byte can say by naming its when and
// where alone.
type packHead struct{ kind, side, mask uint8 }

// Mask bits: maskT and the field bits say which deltas follow, in that
// order; maskPrev says the fields are packed against the record just before
// rather than the last one with the same where.
const (
	maskT    = 1 << 0 // fields index … worker are bits 1 to 6
	maskPrev = 1 << 7
)

// Header codes, the high nibble of a record's first byte.
const (
	codeRepeat = 0  // kind, side and mask are the last ones of this when and where
	codeEscape = 15 // a uvarint of kind | side<<8 and the mask byte follow
	// 1 to 14: kind code-1 with no side entry; the mask byte follows
)

// maxPackedRecord bounds the bytes of one packed record: the header byte,
// an escaped kind and side of at most two bytes, the mask byte, three
// 64-bit deltas and four 32-bit ones.
const maxPackedRecord = 1 + 2 + 1 + 3*binary.MaxVarintLen64 + 4*binary.MaxVarintLen32

// append encodes rec onto dst and moves the packer past it. The header
// byte holds when (bit 0), where (bits 1 to 3) and a code (bits 4 to 7). A
// record whose kind, side and mask repeat the last record with its when and
// where is that byte alone; any other has a mask byte too. Then follow, in
// mask order, the deltas that are not zero, each wrapping and a zigzag
// varint. Every field round-trips exactly as long as when < 2, where < 8
// and side < 4, which every event.When, event.Where and side constant is.
func (p *packer) append(dst []byte, rec *record) []byte {
	wn, wr := rec.when&1, rec.where&7
	var d [7]int64
	d[0] = rec.t - p.prev.t
	base, mask := &p.prev, uint8(0)
	if p.seen&(1<<wr) != 0 && p.prev.where != wr {
		if b := &p.bases[wr]; rec.parent == p.prev.parent && rec.parent != b.parent {
			mask = maskPrev
		} else {
			base = b
		}
	}
	mask |= fieldDeltas(&d, base, rec)
	if d[0] != 0 {
		mask |= maskT
	}
	h, last := packHead{rec.kind, rec.side, mask}, &p.heads[wn][wr]
	b := wn | wr<<1
	switch {
	case h == *last:
		dst = append(dst, b|codeRepeat<<4)
	case rec.side == sideNone && rec.kind < codeEscape-1:
		dst = append(dst, b|(rec.kind+1)<<4, mask)
	default:
		dst = append(dst, b|codeEscape<<4)
		dst = binary.AppendUvarint(dst, uint64(rec.kind)|uint64(rec.side)<<8)
		dst = append(dst, mask)
	}
	for m := mask &^ maskPrev; m != 0; m &= m - 1 {
		dst = binary.AppendVarint(dst, d[bits.TrailingZeros8(m)])
	}
	*last = h
	p.prev, p.bases[wr] = *rec, *rec
	p.seen |= 1 << wr
	return dst
}

// fieldDeltas sets d[1:] to rec's wrapping differences from base in index,
// parent, card, branch, iter and worker, and returns the mask bits of those
// that are not zero.
func fieldDeltas(d *[7]int64, base, rec *record) (mask uint8) {
	d[1] = rec.index - base.index
	d[2] = rec.parent - base.parent
	d[3] = int64(rec.card - base.card)
	d[4] = int64(rec.branch - base.branch)
	d[5] = int64(rec.iter - base.iter)
	d[6] = int64(rec.worker - base.worker)
	for i := 1; i < len(d); i++ {
		if d[i] != 0 {
			mask |= 1 << i
		}
	}
	return mask
}

// decode decodes the record at the start of src, which append encoded from
// this packer, into *rec, moves the packer past it and returns its length.
func (p *packer) decode(src []byte, rec *record) int {
	b, off := src[0], 1
	wn, wr := b&1, b>>1&7
	h := &p.heads[wn][wr]
	switch code := b >> 4; code {
	case codeRepeat:
	case codeEscape:
		v, n := binary.Uvarint(src[off:])
		h.kind, h.side, h.mask = uint8(v), uint8(v>>8), src[off+n]
		off += n + 1
	default:
		h.kind, h.side, h.mask = code-1, sideNone, src[off]
		off++
	}
	r := &p.prev
	if h.mask&maskPrev == 0 && p.seen&(1<<wr) != 0 && r.where != wr {
		t := r.t
		*r = p.bases[wr]
		r.t = t
	}
	delta := func(bit uint8) int64 {
		if h.mask&bit == 0 {
			return 0
		}
		v, n := binary.Varint(src[off:])
		off += n
		return v
	}
	r.t += delta(maskT)
	r.index += delta(1 << 1)
	r.parent += delta(1 << 2)
	r.card += int32(delta(1 << 3))
	r.branch += int32(delta(1 << 4))
	r.iter += int32(delta(1 << 5))
	r.worker += int32(delta(1 << 6))
	r.when, r.where, r.kind, r.side = wn, wr, h.kind, h.side
	p.bases[wr] = *r
	p.seen |= 1 << wr
	*rec = *r
	return off
}

// len returns the number of events ever appended.
func (l *eventLog) len() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// droppedCount returns how many records the ring has evicted so far.
func (l *eventLog) droppedCount() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return max(0, l.n-l.cap)
}

// readBatch bounds one batch of a reader, whatever its backlog: the side
// entries it copies under the lock, and the records it renders for one
// Write. A backlog of readBatch records also ends a follower's quiet wait.
const readBatch = 256

// flushEvery bounds a follower's quiet wait: how late a live viewer sees an
// intermediate record. Neither the first record after an idle spell (the
// follower parked and is woken at once) nor the end of the job (close wakes
// quiet followers) ever waits for it.
const flushEvery = 20 * time.Millisecond

// waitMode says what next does with a follower that finds nothing to read.
type waitMode uint8

const (
	waitNone  waitMode = iota // nothing: the reader returns once caught up
	waitPark                  // park it until the next append or close
	waitQuiet                 // make it quiet until close, a full batch or flushEvery
)

// logReader is one NDJSON reader's cursor into a log, with the scratch it
// reuses from batch to batch. It belongs to one goroutine.
type logReader struct {
	l    *eventLog
	from int64        // next sequence number to deliver
	side []sideRecord // of the batch's records that have one, in order
	out  []byte
	wake chan struct{}
	// every is how long a quiet wait lasts: flushEvery (tests lengthen it),
	// timed by timer, made at the first quiet wait and reset for each.
	every time.Duration
	timer *time.Timer

	// The decode cursor: record at of a buffer whose first record is seq
	// first starts at byte off and is decoded against pack, the cursor's
	// own packer, which restarts at seq first+cap. Bytes once written never
	// change, so it holds for every buffer with that first.
	first int64
	off   int
	at    int64
	pack  packer
}

// reader returns a cursor that delivers the records with seq >= from. A
// from past the end starts at the end: only what is appended later.
func (l *eventLog) reader(from int64) *logReader {
	return &logReader{l: l, from: max(0, from), wake: make(chan struct{}, 1), every: flushEvery, first: -1}
}

// next renders the next batch of records as NDJSON (valid until the next
// call) and reports whether the log is complete. Records the ring evicted
// between the cursor and the oldest retained one are announced by a
// truncation marker carrying their number instead of silently skipped.
// When nothing is available on a live log, the reader is registered as
// wait says — parked or quiet — in the same critical section that found
// nothing, so no append can slip between, and the caller waits on wake.
// The batch is decoded after the lock is let go.
func (rd *logReader) next(wait waitMode) (out []byte, done bool) {
	l := rd.l
	rd.side = rd.side[:0]

	l.mu.Lock()
	var lost int64
	if base := max(0, l.n-l.cap); rd.from < base {
		lost = base - rd.from
		rd.from = base
	}
	buf, first, restart := l.buf, l.first, l.first+l.cap
	from := min(rd.from, l.n)
	end := min(l.n, from+readBatch)
	if from < restart {
		end = min(end, restart) // a batch stays inside one segment (see seek)
	}
	rd.from = end
	at := sort.Search(len(l.side), func(i int) bool { return l.side[i].seq >= from })
	for ; at < len(l.side) && l.side[at].seq < end; at++ {
		rd.side = append(rd.side, l.side[at])
	}
	done = l.closed
	if !done && from == end {
		switch wait {
		case waitPark:
			l.parked = append(l.parked, rd.wake)
		case waitQuiet:
			l.quiet = append(l.quiet, quietFollower{wake: rd.wake, full: end + readBatch})
		}
	}
	l.mu.Unlock()

	out = rd.out[:0]
	if lost > 0 {
		out = appendTruncated(out, from, lost)
	}
	if from < end {
		rd.seek(buf, first, restart, from)
		side := rd.side
		var rec record
		for ; rd.at < end; rd.at++ {
			rd.off += rd.pack.decode(buf[rd.off:], &rec)
			var sr *sideRecord
			if rec.side != sideNone {
				sr, side = &side[0], side[1:]
			}
			out = appendRecord(out, rd.at, &rec, sr)
		}
	}
	rd.out = out
	return out, done
}

// seek moves the decode cursor to record seq of buf, whose first record is
// seq first: on from where it stands when that is in a buffer with the same
// first and not past seq, from the start of buf otherwise. The cursor's
// packer restarts when the cursor reaches seq restart, stopping there
// included, so a batch from seq that ends by the next restart decodes with
// no check of its own.
func (rd *logReader) seek(buf []byte, first, restart, seq int64) {
	if rd.first != first || rd.at > seq {
		rd.first, rd.off, rd.at, rd.pack = first, 0, first, packer{}
	}
	var rec record
	for {
		if rd.at == restart {
			rd.pack = packer{}
		}
		if rd.at == seq {
			return
		}
		rd.off += rd.pack.decode(buf[rd.off:], &rec)
		rd.at++
	}
}

// stream writes the log from the cursor on to w as NDJSON, one Write per
// batch, and flushes once it has caught up. Without follow it returns
// then; with follow it returns when the log is complete or ctx ends, and
// waits in between. A follower that found nothing parks, so the first
// record after an idle spell goes out at once. A follower that has just
// flushed goes quiet instead, and drains and flushes again only on close,
// a full batch (readBatch) waiting, or flushEvery: a stream of events
// costs a flush per batch or per flushEvery, not one per read.
func (rd *logReader) stream(ctx context.Context, w io.Writer, flush func(), follow bool) {
	wrote := false // since the last flush
	for {
		wait := waitNone
		if follow {
			wait = waitPark
			if wrote {
				wait = waitQuiet
			}
		}
		out, done := rd.next(wait)
		if len(out) > 0 {
			if _, err := w.Write(out); err != nil {
				return
			}
			wrote = true
			continue
		}
		if wrote {
			flush()
			wrote = false
		}
		if !follow || done || !rd.sleep(ctx, wait) {
			return
		}
	}
}

// sleep waits on the wake channel next registered, and for a quiet wait on
// the timer too. It reports false, having withdrawn, when ctx ended first.
//
// The timer channel may keep a stale tick: go.mod's go 1.22 gives timers
// their asynchronous, buffered channel, and a tick that fires as a wake-up
// arrives can escape the drain after Stop. It can only end a later quiet
// wait early — the follower reads, writes what came and flushes sooner —
// never delay one.
func (rd *logReader) sleep(ctx context.Context, wait waitMode) bool {
	if wait != waitQuiet {
		select {
		case <-rd.wake:
			return true
		case <-ctx.Done():
			rd.leave()
			return false
		}
	}
	if rd.timer == nil {
		rd.timer = time.NewTimer(rd.every)
	} else {
		rd.timer.Reset(rd.every)
	}
	select {
	case <-rd.wake:
		if !rd.timer.Stop() {
			select {
			case <-rd.timer.C:
			default:
			}
		}
		return true
	case <-rd.timer.C:
		// Not woken: withdraw, and take the token an append or close may
		// have sent before the withdrawal.
		rd.leave()
		select {
		case <-rd.wake:
		default:
		}
		return true
	case <-ctx.Done():
		rd.timer.Stop()
		rd.leave()
		return false
	}
}

// leave withdraws a parked or quiet reader: one whose client went away, or
// whose quiet wait timed out. slices.Delete clears the vacated slot, so the
// list keeps no channel of it.
func (rd *logReader) leave() {
	l := rd.l
	l.mu.Lock()
	if i := slices.Index(l.parked, rd.wake); i >= 0 {
		l.parked = slices.Delete(l.parked, i, i+1)
	}
	if i := slices.IndexFunc(l.quiet, func(q quietFollower) bool { return q.wake == rd.wake }); i >= 0 {
		l.quiet = slices.Delete(l.quiet, i, i+1)
	}
	l.mu.Unlock()
}

// appendRecord renders one record as its NDJSON line — field for field and
// byte for byte what encoding/json makes of
//
//	struct {
//		Seq int64 `json:"seq"`; TMS float64 `json:"t_ms"`; Ev, Kind, When, Where string
//		Index, Parent int64; Card, Branch, Iter int `json:",omitempty"`; Worker int
//		Err string `json:"err,omitempty"`; Truncated int64 `json:"truncated,omitempty"`
//	}
//
// (the test file keeps that struct and holds the two equal under fuzzing).
// Times are milliseconds since the job start, so clients need no clock
// correlation; ev is the paper's ∆@notation, e.g. "map@as(3)". A skeleton
// record of a known kind, when and where takes its fixed text from
// recordHeads; free-text records and unknown kinds are rendered field by
// field.
func appendRecord(dst []byte, seq int64, rec *record, side *sideRecord) []byte {
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendInt(dst, seq, 10)
	dst = append(dst, `,"t_ms":`...)
	dst = appendMillis(dst, rec.t)
	if rec.side != sideText && int(rec.kind) < len(recordHeads) && int(rec.when) < len(recordHeads[0]) && int(rec.where) < len(recordHeads[0][0]) {
		h := &recordHeads[rec.kind][rec.when][rec.where]
		dst = append(dst, h.text[:h.cut]...)
		dst = strconv.AppendInt(dst, rec.index, 10)
		dst = append(dst, h.text[h.cut:]...)
	} else {
		dst = append(dst, `,"ev":`...)
		var kind, when, where string
		if rec.side == sideText {
			dst = appendJSONString(dst, side.ev)
			kind, when, where = side.kind, side.when, side.where
		} else {
			k, wn, wr := skel.Kind(rec.kind), event.When(rec.when), event.Where(rec.where)
			var ev [40]byte
			dst = appendJSONString(dst, event.AppendNotation(ev[:0], k, wn, wr, rec.index))
			kind, when, where = k.String(), wn.String(), wr.String()
		}
		dst = appendFieldNames(dst, kind, when, where)
	}
	dst = strconv.AppendInt(dst, rec.index, 10)
	dst = append(dst, `,"parent":`...)
	dst = strconv.AppendInt(dst, rec.parent, 10)
	dst = appendOmitZero(dst, `,"card":`, rec.card)
	dst = appendOmitZero(dst, `,"branch":`, rec.branch)
	dst = appendOmitZero(dst, `,"iter":`, rec.iter)
	dst = append(dst, `,"worker":`...)
	dst = strconv.AppendInt(dst, int64(rec.worker), 10)
	if side != nil && side.err != "" {
		dst = append(dst, `,"err":`...)
		dst = appendJSONString(dst, side.err)
	}
	return append(dst, "}\n"...)
}

// appendFieldNames renders a record's kind, when and where fields and the
// key of its index.
func appendFieldNames(dst []byte, kind, when, where string) []byte {
	dst = append(dst, `,"kind":`...)
	dst = appendJSONString(dst, kind) // "d&c" needs the escaper
	dst = append(dst, `,"when":`...)
	dst = appendJSONString(dst, when)
	dst = append(dst, `,"where":`...)
	dst = appendJSONString(dst, where)
	return append(dst, `,"index":`...)
}

// recordHead is the fixed, escaped text of a skeleton record of one kind,
// when and where, around its index: text[:cut] is `,"ev":"map@as(` and
// text[cut:] is `)","kind":"map","when":"after","where":"split","index":`.
type recordHead struct {
	text string
	cut  int
}

// recordHeads holds the head of every kind, when and where the skeleton
// events have, rendered by the same functions as the field-by-field path.
var recordHeads = func() (heads [skel.DaC + 1][2][event.Fault + 1]recordHead) {
	for k := range heads {
		for wn := range heads[k] {
			for wr := range heads[k][wn] {
				kind, when, where := skel.Kind(k), event.When(wn), event.Where(wr)
				ev := event.AppendNotation(nil, kind, when, where, 0)
				ev = appendJSONString(nil, ev[:len(ev)-len("0)")]) // "map@as("
				text := append([]byte(`,"ev":`), ev[:len(ev)-1]...)
				cut := len(text)
				text = append(text, `)"`...)
				text = appendFieldNames(text, kind.String(), when.String(), where.String())
				heads[k][wn][wr] = recordHead{text: string(text), cut: cut}
			}
		}
	}
	return heads
}()

// appendMillis renders ns nanoseconds as milliseconds, as encoding/json
// renders float64(ns)/1e6. Below 10¹⁵ ns in magnitude the exact quotient
// has at most 15 significant digits, so it is the shortest decimal that
// rounds to that float64 — the one encoding/json prints — and is written
// from the integer. Larger times go through the float64.
func appendMillis(dst []byte, ns int64) []byte {
	const exact = 1e15
	if ns <= -exact || ns >= exact {
		// Whole nanoseconds over 1e6 are either 0 or within [1e-6, 1e21),
		// where encoding/json formats floats with 'f' and the shortest digits.
		return strconv.AppendFloat(dst, float64(ns)/float64(time.Millisecond), 'f', -1, 64)
	}
	if ns < 0 {
		dst = append(dst, '-')
		ns = -ns
	}
	const perMS = int64(time.Millisecond)
	dst = strconv.AppendInt(dst, ns/perMS, 10)
	frac := ns % perMS
	if frac == 0 {
		return dst
	}
	var digits [7]byte // '.' and six digits, the trailing zeros cut
	digits[0] = '.'
	for i := 6; i > 0; i-- {
		digits[i] = byte('0' + frac%10)
		frac /= 10
	}
	n := len(digits)
	for digits[n-1] == '0' {
		n--
	}
	return append(dst, digits[:n]...)
}

func appendOmitZero(dst []byte, key string, v int32) []byte {
	if v == 0 {
		return dst
	}
	dst = append(dst, key...)
	return strconv.AppendInt(dst, int64(v), 10)
}

// appendTruncated renders the synthetic marker a reader receives when the
// ring dropped lost records before seq first, the oldest one it still has.
func appendTruncated(dst []byte, first, lost int64) []byte {
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendInt(dst, first, 10)
	dst = append(dst, `,"t_ms":0,"ev":"truncated","kind":"","when":"","where":"","index":0,"parent":0,"worker":0,"truncated":`...)
	dst = strconv.AppendInt(dst, lost, 10)
	return append(dst, "}\n"...)
}

const hexDigits = "0123456789abcdef"

// appendJSONString quotes s the way encoding/json does with its default
// HTML escaping: \" \\ \b \f \n \r \t, \u00XX for the other control bytes
// and for < > &, \ufffd for invalid UTF-8, U+2028 and U+2029 escaped.
func appendJSONString[S string | []byte](dst []byte, s S) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b >= utf8.RuneSelf {
			// Convert at most one rune's bytes, so the string stays on the stack.
			c, size := utf8.DecodeRuneInString(string(s[i:min(len(s), i+utf8.UTFMax)]))
			switch {
			case c == utf8.RuneError && size == 1:
				dst = append(dst, s[start:i]...)
				dst = append(dst, `\ufffd`...)
				start = i + size
			case c == '\u2028' || c == '\u2029':
				dst = append(dst, s[start:i]...)
				dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
				start = i + size
			}
			i += size
			continue
		}
		if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
			i++
			continue
		}
		dst = append(dst, s[start:i]...)
		switch b {
		case '\\', '"':
			dst = append(dst, '\\', b)
		case '\b':
			dst = append(dst, '\\', 'b')
		case '\f':
			dst = append(dst, '\\', 'f')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		default:
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
		}
		i++
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
