// Package adg implements the Activity Dependency Graph of the paper's §4:
// the model that turns "where the execution is right now" plus the t(m) and
// |m| estimates into predictions of the remaining wall-clock time.
//
// An Activity is one muscle execution — past (actual start and end), running
// (actual start, estimated end), or future (both estimated). Dependencies
// follow the data flow of the skeleton program: a split precedes its
// sub-problems, every sub-problem precedes the merge, pipeline stages and
// loop iterations chain, and so on.
//
// Two scheduling strategies evaluate the graph, exactly as in Fig. 1/Fig. 2:
//
//   - best effort assumes an infinite level of parallelism: an activity
//     starts as soon as its predecessors finish (clamped to "now" if that is
//     in the past). Its makespan is the best achievable WCT, and the peak of
//     its active-thread timeline is the optimal LP.
//   - limited LP list-schedules pending activities onto lp slots (greedy,
//     ready-time order): its makespan predicts the WCT if the current LP is
//     kept.
//
// The graph is flat: activities are pointer-free records in one slice, their
// times are nanoseconds since the execution start, their muscle is a slot of
// the graph's muscle table and their predecessors a range of one shared
// index array. A Graph is meant to be rebuilt in place (Builder.LiveInto) and
// rescheduled at other instants (set Now, schedule again); every buffer the
// builder and the schedulers need is kept on it and reused.
package adg

import (
	"fmt"
	"math"
	"slices"
	"time"

	"skandium/internal/muscle"
	"skandium/internal/skel"
)

// State classifies an activity at analysis time.
type State uint8

// Activity states.
const (
	// Done: both start and end are actual history.
	Done State = iota
	// Running: started, not finished; end is estimated.
	Running
	// Pending: not started; both times come from scheduling.
	Pending
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Done:
		return "done"
	case Running:
		return "running"
	case Pending:
		return "pending"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// unset marks a time that is not known (an actual start never recorded) or
// not scheduled. It orders before every real time.
const unset = time.Duration(math.MinInt64)

// Activity is one node of the ADG. Every time is a duration since the
// graph's Start; unknown times read as the most negative duration.
type Activity struct {
	// Dur is the estimated duration, used when the end is not actual.
	Dur time.Duration
	// ActualStart/ActualEnd are history: the start of running and done
	// activities, the end of done ones.
	ActualStart time.Duration
	ActualEnd   time.Duration
	// TI and TF are the scheduled start and end times, filled by
	// ScheduleBestEffort / ScheduleLimited. For Done activities they equal
	// the actual times.
	TI time.Duration
	TF time.Duration

	slot   int32 // muscle slot, or lumpSlot(kind) for a collapsed subtree
	p0, p1 int32 // predecessors: Graph.preds[p0:p1]
	state  State
}

// State returns the activity's classification.
func (a *Activity) State() State { return a.state }

// lumpSlot encodes the skeleton kind of a collapsed subtree in place of a
// muscle slot.
func lumpSlot(k skel.Kind) int32 { return -1 - int32(k) }

// Graph is an ADG snapshot for an execution that started at Start, to be
// scheduled as of Now. Activities are topologically ordered (every activity
// appears after all of its predecessors). Moving Now and scheduling again
// re-predicts at another instant: building never reads Now.
type Graph struct {
	Acts  []Activity
	Start time.Time
	Now   time.Time

	preds []int32             // every activity's predecessor ids, back to back
	slots []muscleSlot        // the muscles the activities run
	slot  map[muscle.ID]int32 // index of slots by muscle
	// Builder scratch: predecessor sets in flight and the child lookup
	// tables of the live walk (both stacks), plus branch keys that fell
	// outside their table.
	stk, tab, odd []int32
	// Scheduler scratch.
	indeg    []int32
	first    []int32 // first successor edge per activity (-1 = none)
	next, to []int32 // successor edges as linked lists
	ready    queue   // activities whose predecessors have all completed
	inflight queue   // completions of activities holding a slot
	// Timeline scratch: interval starts and ends, each sorted.
	starts, ends []time.Duration
}

// muscleSlot is one muscle of the graph with its estimates, read once per
// build.
type muscleSlot struct {
	m        *muscle.Muscle
	dur      time.Duration
	card     int
	durOK    bool
	cardRead bool
	cardOK   bool
}

// Len returns the number of activities.
func (g *Graph) Len() int { return len(g.Acts) }

// Preds returns the ids of activity i's predecessors. The slice aliases the
// graph and is only valid until the next build.
func (g *Graph) Preds(i int) []int32 {
	a := &g.Acts[i]
	return g.preds[a.p0:a.p1]
}

// Muscle returns the muscle activity i runs, nil for a collapsed subtree.
func (g *Graph) Muscle(i int) *muscle.Muscle {
	if s := g.Acts[i].slot; s >= 0 {
		return g.slots[s].m
	}
	return nil
}

// Label names activity i in dumps: its muscle's name, or "~kind" for a
// collapsed subtree.
func (g *Graph) Label(i int) string {
	if m := g.Muscle(i); m != nil {
		return m.Name()
	}
	return "~" + skel.Kind(-1-g.Acts[i].slot).String()
}

// at converts an instant to the graph's time base.
func (g *Graph) at(t time.Time) time.Duration { return t.Sub(g.Start) }

// ScheduleBestEffort fills TI/TF assuming infinite parallelism (the paper's
// "best effort" strategy): ti = max over predecessors of tf, clamped to Now
// if in the past; tf = ti + t(m), clamped to Now for running activities
// whose estimate has already elapsed.
func (g *Graph) ScheduleBestEffort() {
	now := g.at(g.Now)
	for i := range g.Acts {
		a := &g.Acts[i]
		if a.state != Pending {
			a.fix(now)
			continue
		}
		ti := now
		for _, p := range g.preds[a.p0:a.p1] {
			ti = max(ti, g.Acts[p].TF)
		}
		a.TI, a.TF = ti, ti+a.Dur
	}
}

// fix sets TI/TF of a Done or Running activity, which are the same under
// every strategy.
func (a *Activity) fix(now time.Duration) {
	a.TI = a.ActualStart
	if a.state == Done {
		a.TF = a.ActualEnd
		return
	}
	// The paper: "if ti + t(m) is in the past, tf = currentTime".
	a.TF = max(a.ActualStart+a.Dur, now)
}

// inFlight reports whether a fixed activity occupies a thread at now: a
// running one, or one whose recorded end lies after now — a worker can
// record an After between the moment an analysis reads the clock and the
// moment it snapshots the tree.
func (a *Activity) inFlight(now time.Duration) bool {
	return a.state == Running || (a.state == Done && a.TF > now)
}

// ScheduleLimited fills TI/TF under a level-of-parallelism cap: pending
// activities are greedily list-scheduled onto lp slots in ready-time order
// (ties by creation order), starting from Now. Activities in flight at Now
// occupy slots until their end and then release their successors. lp < 1 is
// treated as 1.
func (g *Graph) ScheduleLimited(lp int) {
	lp = max(lp, 1)
	now := g.at(g.Now)
	n := len(g.Acts)
	g.indeg = resize(g.indeg, n)
	g.first = resize(g.first, n)
	g.next, g.to = g.next[:0], g.to[:0]
	g.ready, g.inflight = g.ready[:0], g.inflight[:0]
	busy := 0
	for i := range g.Acts {
		a := &g.Acts[i]
		g.indeg[i], g.first[i] = 0, -1
		if a.state == Pending {
			a.TI, a.TF = unset, unset
			continue
		}
		a.fix(now)
		if a.inFlight(now) {
			busy++
			g.inflight.push(item{a.TF, int32(i)})
		}
	}
	// indeg counts the predecessors that have not finished by Now; each
	// of them releases its successors (a linked list of edges) when its
	// completion is reached.
	for i := range g.Acts {
		a := &g.Acts[i]
		if a.state != Pending {
			continue
		}
		for _, p := range g.preds[a.p0:a.p1] {
			if pa := &g.Acts[p]; pa.state == Pending || pa.inFlight(now) {
				g.indeg[i]++
				g.next = append(g.next, g.first[p])
				g.to = append(g.to, int32(i))
				g.first[p] = int32(len(g.to) - 1)
			}
		}
		if g.indeg[i] == 0 {
			g.ready.push(item{0, int32(i)})
		}
	}
	cursor := now
	free := max(lp-busy, 0)
	for {
		for free > 0 && len(g.ready) > 0 {
			id := g.ready.pop().id
			a := &g.Acts[id]
			a.TI, a.TF = cursor, cursor+a.Dur
			free--
			g.inflight.push(item{a.TF, id})
		}
		if len(g.inflight) == 0 {
			return // everything scheduled (or nothing left)
		}
		// Advance to the next completion; release its slot and unlock
		// successors. Process all completions at the same instant.
		cursor = g.inflight[0].t
		for len(g.inflight) > 0 && g.inflight[0].t <= cursor {
			id := g.inflight.pop().id
			free++
			for e := g.first[id]; e >= 0; e = g.next[e] {
				s := g.to[e]
				if g.indeg[s]--; g.indeg[s] == 0 {
					g.ready.push(item{0, s})
				}
			}
		}
	}
}

// end returns the latest scheduled end, or unset when nothing is scheduled.
func (g *Graph) end() time.Duration {
	end := unset
	for i := range g.Acts {
		end = max(end, g.Acts[i].TF)
	}
	return end
}

// WCT returns the makespan of the last computed schedule as a duration
// since the execution start.
func (g *Graph) WCT() time.Duration {
	if end := g.end(); end != unset {
		return end
	}
	return 0
}

// EndTime returns the absolute completion time of the last computed
// schedule.
func (g *Graph) EndTime() time.Time {
	if end := g.end(); end != unset {
		return g.Start.Add(end)
	}
	return time.Time{}
}

// Step is one level of the active-thread timeline: Active threads are in
// use from T (since the graph's Start) until the next step's T.
type Step struct {
	T      time.Duration
	Active int
}

// intervals collects the scheduled [TI, TF) of every activity still in
// flight after from, starts clamped to from, into the sorted start and end
// lists of the graph's scratch. Zero-length activities do not contribute,
// nor do Done ones when history is skipped.
func (g *Graph) intervals(from time.Duration, history bool) (starts, ends []time.Duration) {
	starts, ends = g.starts[:0], g.ends[:0]
	for i := range g.Acts {
		a := &g.Acts[i]
		if a.TF > a.TI && a.TF > from && (history || a.state != Done) {
			starts = append(starts, max(a.TI, from))
			ends = append(ends, a.TF)
		}
	}
	slices.Sort(starts)
	slices.Sort(ends)
	g.starts, g.ends = starts, ends
	return starts, ends
}

// peak returns the most intervals in flight at once and the instant that
// level is first reached. Intervals ending at t have left before those
// starting at t arrive.
func peak(starts, ends []time.Duration) (int, time.Duration) {
	top, at, active, j := 0, unset, 0, 0
	for _, s := range starts {
		for ; j < len(ends) && ends[j] <= s; j++ {
			active--
		}
		if active++; active > top {
			top, at = active, s
		}
	}
	return top, at
}

// Timeline sweeps the scheduled activities into the step function of
// Fig. 2: how many activities are in flight at every instant.
func (g *Graph) Timeline() []Step {
	var steps []Step
	starts, ends := g.intervals(unset, true)
	active, i, j := 0, 0, 0
	for j < len(ends) {
		t := ends[j]
		if i < len(starts) {
			t = min(t, starts[i])
		}
		for ; j < len(ends) && ends[j] == t; j++ {
			active--
		}
		for ; i < len(starts) && starts[i] == t; i++ {
			active++
		}
		if len(steps) == 0 || steps[len(steps)-1].Active != active {
			steps = append(steps, Step{T: t, Active: active})
		}
	}
	return steps
}

// Peak returns the maximum number of activities in flight at or after from
// in the last computed schedule. Applied to a best-effort schedule from Now
// it is the paper's optimal LP.
func (g *Graph) Peak(from time.Time) int {
	n, _ := peak(g.intervals(g.at(from), true))
	return n
}

// OptimalLP computes the paper's optimal level of parallelism: the peak of
// the best-effort timeline from Now on. It (re)schedules the graph
// best-effort.
func (g *Graph) OptimalLP() int {
	g.ScheduleBestEffort()
	return max(g.Peak(g.Now), 1)
}

// MinLPForGoal returns the smallest lp in [1, ceil] whose limited-LP
// schedule completes by deadline, and whether such an lp exists. The graph
// is left scheduled at the returned lp. The paper notes the exact problem
// is NP-complete; like the paper this relies on the greedy list schedule,
// plus the (stated) assumption that more threads never hurt, which makes
// the predicate monotone and binary-searchable.
func (g *Graph) MinLPForGoal(deadline time.Time, ceil int) (int, bool) {
	ceil = max(ceil, 1)
	d := g.at(deadline)
	g.ScheduleLimited(ceil)
	if g.end() > d {
		return ceil, false
	}
	lo, hi := 1, ceil // invariant: hi works
	for lo < hi {
		mid := (lo + hi) / 2
		g.ScheduleLimited(mid)
		if g.end() > d {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	g.ScheduleLimited(lo)
	return lo, true
}

// --- scheduler queue -------------------------------------------------------------

// item is one entry of the list scheduler's queues: an activity and a time.
type item struct {
	t  time.Duration
	id int32
}

// queue is a min-heap of items by time, then id. The scheduler keeps the
// completions of activities in flight in one, and its ready activities in
// another with t = 0: by id alone, which is creation order — the builder
// assigns ids in program order, the greedy tie-break of the paper's list
// scheduler.
type queue []item

func (q queue) less(i, j int) bool {
	return q[i].t < q[j].t || (q[i].t == q[j].t && q[i].id < q[j].id)
}

func (q *queue) push(it item) {
	h := append(*q, it)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	*q = h
}

func (q *queue) pop() item {
	h := *q
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		small, l, r := i, 2*i+1, 2*i+2
		if l < len(h) && h.less(l, small) {
			small = l
		}
		if r < len(h) && h.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	*q = h
	return top
}

// resize returns s with length n, reusing its array when it is big enough.
// The contents are unspecified.
func resize(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}
