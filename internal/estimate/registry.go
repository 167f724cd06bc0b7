package estimate

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"skandium/internal/muscle"
)

// Registry tracks, per muscle, the duration estimate t(m) and — for Split
// and Condition muscles — the cardinality estimate |m|. It is the shared
// knowledge base the state machines write to and the ADG builder reads
// from. Safe for concurrent use.
type Registry struct {
	rho float64

	// ver counts mutations (observations and inits). Readers use it to
	// detect that nothing changed between two analyses and reuse derived
	// results; it only ever advances, so a matching version can never mean
	// a stale view.
	ver atomic.Uint64

	mu   sync.RWMutex
	dur  map[muscle.ID]*EWMA
	card map[muscle.ID]*EWMA
}

// Version returns the mutation counter: it advances on every Observe*,
// Init* and Restore. Read it before consulting estimates; if it reads the
// same on a later check, the estimates are unchanged in between.
func (r *Registry) Version() uint64 { return r.ver.Load() }

// NewRegistry builds a registry whose per-quantity estimators are EWMAs
// with the given ρ (DefaultRho is the paper's). It panics if ρ is outside
// [0,1].
func NewRegistry(rho float64) *Registry {
	checkRho(rho)
	return &Registry{
		rho:  rho,
		dur:  make(map[muscle.ID]*EWMA),
		card: make(map[muscle.ID]*EWMA),
	}
}

func (r *Registry) estimator(m map[muscle.ID]*EWMA, id muscle.ID) *EWMA {
	if e, ok := m[id]; ok {
		return e
	}
	e := NewEWMA(r.rho)
	m[id] = e
	return e
}

// ObserveDuration records one actual execution time of muscle id.
func (r *Registry) ObserveDuration(id muscle.ID, d time.Duration) {
	r.mu.Lock()
	r.estimator(r.dur, id).Observe(d.Seconds())
	r.ver.Add(1)
	r.mu.Unlock()
}

// InitDuration seeds t(m) (paper scenario 2, "goal with initialization").
func (r *Registry) InitDuration(id muscle.ID, d time.Duration) {
	r.mu.Lock()
	r.estimator(r.dur, id).Init(d.Seconds())
	r.ver.Add(1)
	r.mu.Unlock()
}

// Duration returns the t(m) estimate; ok is false when the muscle has never
// been observed nor initialized.
func (r *Registry) Duration(id muscle.ID) (time.Duration, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.dur[id]
	if !ok {
		return 0, false
	}
	v, ok := e.Value()
	if !ok {
		return 0, false
	}
	return duration(v), true
}

// duration is the nearest time.Duration to v seconds: Duration and Snapshot
// round alike, so a restored profile reads back what was exported.
func duration(v float64) time.Duration {
	return time.Duration(math.Round(v * float64(time.Second)))
}

// ObserveCard records one actual cardinality of a Split or Condition
// muscle: the number of sub-problems, the number of true verdicts of a
// while condition, or the d&c recursion depth.
func (r *Registry) ObserveCard(id muscle.ID, n float64) {
	r.mu.Lock()
	r.estimator(r.card, id).Observe(n)
	r.ver.Add(1)
	r.mu.Unlock()
}

// InitCard seeds |m|.
func (r *Registry) InitCard(id muscle.ID, n float64) {
	r.mu.Lock()
	r.estimator(r.card, id).Init(n)
	r.ver.Add(1)
	r.mu.Unlock()
}

// Card returns the |m| estimate.
func (r *Registry) Card(id muscle.ID) (float64, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.card[id]
	if !ok {
		return 0, false
	}
	return e.Value()
}

// DurationObservations returns how many actual durations of id were
// consumed (0 for unknown muscles).
func (r *Registry) DurationObservations(id muscle.ID) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if e, ok := r.dur[id]; ok {
		return e.Observations()
	}
	return 0
}

// Complete reports whether every muscle in ids has a duration estimate, and
// every id in cardIDs a cardinality estimate. The paper's first analysis
// can only run once "all muscles have been executed at least once" (or were
// initialized); the controller uses Complete as that gate.
func (r *Registry) Complete(ids []muscle.ID, cardIDs []muscle.ID) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, id := range ids {
		e, ok := r.dur[id]
		if !ok {
			return false
		}
		if _, ok := e.Value(); !ok {
			return false
		}
	}
	for _, id := range cardIDs {
		e, ok := r.card[id]
		if !ok {
			return false
		}
		if _, ok := e.Value(); !ok {
			return false
		}
	}
	return true
}

// ProfileEntry is one muscle's exported estimates.
type ProfileEntry struct {
	Duration    time.Duration
	HasDuration bool
	Card        float64
	HasCard     bool
}

// Profile is a snapshot of every estimate in a registry, keyed by muscle.
// It is what a run exports and a later run imports to start "with
// initialization".
type Profile map[muscle.ID]ProfileEntry

// Snapshot exports the current estimates.
func (r *Registry) Snapshot() Profile {
	r.mu.RLock()
	defer r.mu.RUnlock()
	p := make(Profile)
	for id, e := range r.dur {
		if v, ok := e.Value(); ok {
			en := p[id]
			en.Duration = duration(v)
			en.HasDuration = true
			p[id] = en
		}
	}
	for id, e := range r.card {
		if v, ok := e.Value(); ok {
			en := p[id]
			en.Card = v
			en.HasCard = true
			p[id] = en
		}
	}
	return p
}

// Restore seeds the registry from a profile via Init (it does not count as
// observations).
func (r *Registry) Restore(p Profile) {
	for id, en := range p {
		if en.HasDuration {
			r.InitDuration(id, en.Duration)
		}
		if en.HasCard {
			r.InitCard(id, en.Card)
		}
	}
}
