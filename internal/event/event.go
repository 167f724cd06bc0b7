// Package event implements the event-driven separation of concerns the
// paper builds on (Pabón & Leyton, "Tackling algorithmic skeleton's
// inversion of control", PDP 2012). Events are statically defined hooks
// woven into the skeleton interpreter: every muscle invocation and every
// skeleton activation is bracketed by Before/After events that carry the
// partial solution, the skeleton trace, and an activation index i used to
// correlate Before with After.
//
// Listeners run synchronously on the worker goroutine that executes the
// adjacent muscle, exactly as the paper guarantees ("the handler is executed
// on the same thread as the related muscle"). A listener may replace the
// partial solution by returning a different value, which enables
// non-functional concerns such as encryption or compression of intermediate
// data without touching business code.
package event

import (
	"fmt"
	"math/bits"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"skandium/internal/skel"
)

// When says whether the event fires before or after its subject.
type When int

// When values.
const (
	Before When = iota
	After
)

// String implements fmt.Stringer.
func (w When) String() string {
	switch w {
	case Before:
		return "before"
	case After:
		return "after"
	default:
		return fmt.Sprintf("When(%d)", int(w))
	}
}

// Where says which part of a skeleton's evaluation the event brackets.
type Where int

// Where values. Skeleton brackets the whole pattern activation ("beginning
// of the skeleton" / "end of the map" in the paper); the others bracket the
// correspondingly named muscle; NestedSkel brackets one nested-skeleton
// evaluation inside map/fork/d&c/pipe/while/for/farm. Retry and Fault are
// the fault-tolerance extension: Retry fires once per failed-but-retried
// muscle attempt (Err holds the attempt's error, Iter the attempt number),
// Fault fires when a muscle invocation fails terminally — after exhausting
// its retry budget — just before the error unwinds.
const (
	Skeleton Where = iota
	Split
	Merge
	Condition
	NestedSkel
	Retry
	Fault
)

// String implements fmt.Stringer.
func (w Where) String() string {
	switch w {
	case Skeleton:
		return "skeleton"
	case Split:
		return "split"
	case Merge:
		return "merge"
	case Condition:
		return "condition"
	case NestedSkel:
		return "nested"
	case Retry:
		return "retry"
	case Fault:
		return "fault"
	default:
		return fmt.Sprintf("Where(%d)", int(w))
	}
}

// NoParent is the Parent value of events raised by a root-level activation.
const NoParent int64 = -1

// Event is the information delivered to listeners. In the paper's notation
// an event is ∆@when-where(i, extra...); for example map(fs,∆,fm)@as(i,
// fsCard) becomes {Node: the map node, When: After, Where: Split, Index: i,
// Card: fsCard}.
type Event struct {
	// Node is the skeleton whose evaluation raised the event.
	Node *skel.Node
	// Trace is the static nesting path from the root skeleton to Node,
	// inclusive. Listeners must not modify it.
	Trace []*skel.Node
	// Index identifies the activation: the Before and After events of one
	// muscle or skeleton activation share the same Index.
	Index int64
	// Parent is the activation index of the enclosing skeleton activation,
	// or NoParent for the root. It lets listeners rebuild the dynamic
	// activation tree (the state machines rely on it).
	Parent int64
	// When and Where locate the event around the activation.
	When  When
	Where Where
	// Param is the partial solution flowing through the skeleton. For
	// After/Merge-style events it is the produced value; for Before events
	// it is the input. Listeners may substitute it via their return value.
	Param any
	// Card is the number of sub-problems produced by a split; it is only
	// meaningful on After/Split events (the paper's fsCard).
	Card int
	// Branch is the child position for NestedSkel events of map/fork (which
	// sub-problem), and the stage number for pipe.
	Branch int
	// Iter is the iteration counter for while/for NestedSkel and Condition
	// events, and the recursion depth for d&c events.
	Iter int
	// Cond is the outcome of the condition muscle; only meaningful on
	// After/Condition events.
	Cond bool
	// Time is the clock reading when the event fired.
	Time time.Time
	// Worker is the id of the pool worker that raised the event (-1 when
	// raised outside a worker, e.g. by the simulator).
	Worker int
	// Err is the muscle error on After events of failed muscles. When Err
	// is non-nil the execution is unwinding; Param holds the input that
	// caused the failure.
	Err error
}

// CurrentSkel returns the innermost skeleton of the trace (the node that
// raised the event). It mirrors st[st.length-1] from the paper's listing 2.
func (e *Event) CurrentSkel() *skel.Node { return e.Node }

// String renders the event in the paper's ∆@notation for logs and tests.
func (e *Event) String() string {
	var buf [32]byte
	return string(AppendNotation(buf[:0], e.Node.Kind(), e.When, e.Where, e.Index))
}

// AppendNotation appends the ∆@notation of an event with the given
// coordinates — "map@as(3)": pattern, b/a for before/after, the position's
// letter (none for the skeleton bracket itself), activation index — to dst.
// Readers that keep event coordinates instead of events (the daemon's job
// log) render through it, so the notation has one definition.
func AppendNotation(dst []byte, kind skel.Kind, when When, where Where, index int64) []byte {
	dst = append(dst, kind.String()...)
	dst = append(dst, '@')
	if when == After {
		dst = append(dst, 'a')
	} else {
		dst = append(dst, 'b')
	}
	switch where {
	case Split:
		dst = append(dst, 's')
	case Merge:
		dst = append(dst, 'm')
	case Condition:
		dst = append(dst, 'c')
	case NestedSkel:
		dst = append(dst, 'n')
	case Retry:
		dst = append(dst, 'r')
	case Fault:
		dst = append(dst, 'f')
	}
	dst = append(dst, '(')
	dst = strconv.AppendInt(dst, index, 10)
	return append(dst, ')')
}

// Listener receives events. Handler returns the (possibly replaced) partial
// solution; returning e.Param unchanged is the common case. Handlers run on
// the worker goroutine: they must be fast and must not block on the skeleton
// execution they observe (deadlock).
type Listener interface {
	Handler(e *Event) any
}

// Func adapts a plain function to the Listener interface.
type Func func(e *Event) any

// Handler implements Listener.
func (f Func) Handler(e *Event) any { return f(e) }

// Filter restricts which events reach a listener. Zero-value fields do not
// filter; combine fields to narrow. A Filter with all fields zero matches
// every event (the paper's "generic listener").
type Filter struct {
	// Node, when non-nil, matches only events raised by that exact node.
	Node *skel.Node
	// Kind, when set (HasKind true), matches only events whose node has
	// that pattern kind.
	Kind    skel.Kind
	HasKind bool
	// When, when set (HasWhen true), matches only Before or only After.
	When    When
	HasWhen bool
	// Where, when set (HasWhere true), matches only that position.
	Where    Where
	HasWhere bool
}

// Matches reports whether the filter admits e.
func (f Filter) Matches(e *Event) bool {
	if f.Node != nil && f.Node != e.Node {
		return false
	}
	if f.HasKind && e.Node.Kind() != f.Kind {
		return false
	}
	if f.HasWhen && e.When != f.When {
		return false
	}
	if f.HasWhere && e.Where != f.Where {
		return false
	}
	return true
}

type entry struct {
	id     uint64
	filter Filter
	l      Listener
}

// Slot-index dimensions: every event carries a (When, Where, node Kind)
// triple drawn from these small enums, so the snapshot can pre-sort the
// listener list into one bucket per triple and Emit only walks listeners
// that can possibly match.
const (
	numWhen  = int(After) + 1
	numWhere = int(Fault) + 1
	numKind  = int(skel.DaC) + 1
)

// maskBits is how many entries the slot index covers; listeners past it
// (rare — registries hold a handful) stay correct via an unindexed scan.
const maskBits = 64

// snapshot is the immutable listener view Emit reads through an atomic
// pointer. For each (When, Where, Kind) triple, slots holds a bitmask over
// entries: bit i set means entries[i]'s filter admits that triple, with only
// the Node field left to check at emission time. Bit position equals
// registration position, so walking set bits dispatches in registration
// order. Bitmasks (rather than per-slot entry slices) keep rebuilds to two
// allocations, which matters because streams add and remove a per-input
// listener around every injected parameter.
type snapshot struct {
	entries []entry
	slots   [numWhen][numWhere][numKind]uint64
}

func buildSnapshot(entries []entry) *snapshot {
	s := &snapshot{entries: append([]entry(nil), entries...)}
	for i, en := range s.entries {
		if i >= maskBits {
			break
		}
		f := en.filter
		for wh := 0; wh < numWhen; wh++ {
			if f.HasWhen && int(f.When) != wh {
				continue
			}
			for wr := 0; wr < numWhere; wr++ {
				if f.HasWhere && int(f.Where) != wr {
					continue
				}
				for k := 0; k < numKind; k++ {
					if f.HasKind && int(f.Kind) != k {
						continue
					}
					// A Node filter implies the node's own kind: the entry
					// can never fire for any other kind's bucket.
					if f.Node != nil && int(f.Node.Kind()) != k {
						continue
					}
					s.slots[wh][wr][k] |= 1 << i
				}
			}
		}
	}
	return s
}

// Registry is an ordered set of listeners with filters. Emission walks the
// listeners in registration order, threading the partial solution through
// each matching handler. A Registry is safe for concurrent use; emission is
// lock-free (it reads an immutable snapshot through an atomic pointer), so
// listeners can (un)register from within handlers without deadlock and
// workers never contend on a registry lock.
type Registry struct {
	mu      sync.Mutex
	nextID  uint64
	entries []entry
	snap    atomic.Pointer[snapshot]
}

// NewRegistry returns an empty listener registry.
func NewRegistry() *Registry { return &Registry{} }

// Subscription identifies a registered listener for removal.
type Subscription uint64

// Add registers l for every event (generic listener) and returns its
// subscription token.
func (r *Registry) Add(l Listener) Subscription { return r.AddFiltered(l, Filter{}) }

// AddFiltered registers l for events admitted by filter.
func (r *Registry) AddFiltered(l Listener, filter Filter) Subscription {
	if l == nil {
		panic("event: nil listener")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	id := r.nextID
	r.entries = append(r.entries, entry{id: id, filter: filter, l: l})
	r.snap.Store(buildSnapshot(r.entries))
	return Subscription(id)
}

// Remove unregisters a previously added listener. Removing an unknown
// subscription is a no-op.
func (r *Registry) Remove(s Subscription) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, en := range r.entries {
		if en.id == uint64(s) {
			r.entries = append(r.entries[:i], r.entries[i+1:]...)
			r.snap.Store(buildSnapshot(r.entries))
			return
		}
	}
}

// Len returns the number of registered listeners.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// Wants reports whether any registered listener could match an event with
// the given (node kind, when, where) coordinates. Emitters use it as a fast
// path: when it returns false they skip Event construction entirely. A true
// result is conservative — a Node-filtered listener makes Wants true for its
// node's kind even though events from sibling nodes of that kind will still
// be dropped at emission time.
func (r *Registry) Wants(kind skel.Kind, when When, where Where) bool {
	snap := r.snap.Load()
	if snap == nil {
		return false
	}
	if int(when) >= numWhen || int(where) >= numWhere || int(kind) >= numKind ||
		when < 0 || where < 0 || kind < 0 {
		return len(snap.entries) > 0
	}
	return snap.slots[when][where][kind] != 0 || len(snap.entries) > maskBits
}

// Emit delivers e to every matching listener in registration order and
// returns the final partial solution (e.Param threaded through handlers).
// Emit is lock-free and never blocks on listener registration.
//
// The *Event is only guaranteed valid for the duration of each handler call:
// emitters may recycle it (see Acquire/Release). Listeners that need to keep
// event data must copy the fields they care about, never the pointer.
func (r *Registry) Emit(e *Event) any {
	snap := r.snap.Load()
	if snap == nil {
		return e.Param
	}
	if e.Node != nil {
		wh, wr, k := int(e.When), int(e.Where), int(e.Node.Kind())
		if wh >= 0 && wh < numWhen && wr >= 0 && wr < numWhere && k >= 0 && k < numKind {
			for m := snap.slots[wh][wr][k]; m != 0; m &= m - 1 {
				en := &snap.entries[bits.TrailingZeros64(m)]
				if en.filter.Node == nil || en.filter.Node == e.Node {
					e.Param = en.l.Handler(e)
				}
			}
			// Entries past the mask width are unindexed; they come after
			// every indexed entry, so scanning them last keeps registration
			// order.
			for i := maskBits; i < len(snap.entries); i++ {
				if en := &snap.entries[i]; en.filter.Matches(e) {
					e.Param = en.l.Handler(e)
				}
			}
			return e.Param
		}
	}
	// Fallback for events outside the indexable space (nil node or
	// out-of-range coordinates): full scan with the complete filter.
	for _, en := range snap.entries {
		if en.filter.Matches(e) {
			e.Param = en.l.Handler(e)
		}
	}
	return e.Param
}

// eventPool recycles Event structs between emissions: the hot path fires
// several events per muscle invocation and pooling keeps them off the heap.
var eventPool = sync.Pool{New: func() any { return new(Event) }}

// Acquire returns a zeroed Event from the pool. Emitters fill it, pass it to
// Emit, and hand it back with Release once Emit returns. Because of this
// recycling, listeners must treat the *Event as valid only during their
// handler call (copy fields, never retain the pointer).
func Acquire() *Event { return eventPool.Get().(*Event) }

// Release zeroes e and returns it to the pool. Callers must not touch e
// afterwards. Only call Release on events obtained from Acquire whose Emit
// call has returned.
func Release(e *Event) {
	*e = Event{}
	eventPool.Put(e)
}
