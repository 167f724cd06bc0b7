package server

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"skandium"
	"skandium/internal/core"
	"skandium/internal/journal"
)

// recover rebuilds the job table from a journal replay. Terminal jobs are
// rehydrated in place: they serve their persisted result or error without a
// runner. Queued and running jobs are re-queued for execution from scratch
// — muscles are pure, so re-running a job the crash interrupted produces
// the same result it would have produced — and their journaled fault
// counters carry over. Terminal jobs are retired in journal order, so the
// table keeps the newest retainJobs of them and the journal forgets the
// rest. Job numbering continues after the highest id the journal has seen
// submitted, evicted and forgotten ones included, so a fresh job never
// takes the id of one issued before the restart.
func (s *Server) recover(states []journal.JobState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.jn != nil {
		if n, ok := jobNum(s.jn.LastSubmitted()); ok {
			s.nextID = n
		}
	}
	if len(states) == 0 {
		return
	}
	for _, st := range states {
		if n, ok := jobNum(st.ID); ok && n > s.nextID {
			s.nextID = n
		}
		if st.Terminal() {
			s.restoreLocked(st)
		} else {
			s.requeueLocked(st)
		}
		s.recovered++
	}
	s.admitLocked()
}

// jobNum parses the N of a "job-N" id, as Submit writes it.
func jobNum(id string) (int, bool) {
	rest, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	return n, err == nil && n > 0 && strconv.Itoa(n) == rest
}

// restoreLocked rehydrates one terminal job from its persisted outcome, in
// the form watch leaves a finished job in: an outcome of zero counters (the
// journaled ones are prior) and no events, retired like any finished job.
// Caller holds s.mu.
func (s *Server) restoreLocked(st journal.JobState) {
	var params []byte
	if len(st.Spec.Params) > 0 {
		params, _ = json.Marshal(st.Spec.Params) // decoded from JSON: it encodes
	}
	j := &job{
		id:        st.ID,
		skeleton:  st.Spec.Skeleton,
		program:   s.intern(st.Spec.Program),
		params:    params,
		goal:      msToDur(st.Spec.GoalMS),
		maxLP:     st.Spec.MaxLP,
		policy:    st.Spec.Policy,
		tenant:    core.CanonTenant(st.Spec.Tenant),
		priority:  st.Spec.Priority,
		recovered: true,
		summary:   st.Result,
		partial:   skandium.FailFast().String(),
		prior:     faultStats(st.Faults),
		state:     restoredState(st.State),
		created:   s.clk.Now().Sub(s.startTime),
	}
	if st.Error != "" {
		j.err = fmt.Errorf("%s", st.Error)
	}
	o := &outcome{}
	j.handle, j.log = o, o
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.retireLocked(j)
}

// requeueLocked rebuilds a queued/running job from its journaled spec and
// puts it back on the wait queue. A spec that no longer builds (blueprint
// unregistered, params now invalid) is journaled as failed, so the next
// restart does not retry it forever, and then rehydrated as failed.
// Caller holds s.mu.
func (s *Server) requeueLocked(st journal.JobState) {
	spec := fromJournalSpec(st.Spec)
	j, err := s.newJob(&spec)
	if err != nil {
		st.State = journal.StateFailed
		st.Error = fmt.Sprintf("recovery: %v", err)
		if s.jn != nil {
			_ = s.jn.Finish(st.ID, journal.StateFailed, "", st.Error, st.Faults)
		}
		s.restoreLocked(st)
		return
	}
	j.id = st.ID
	j.recovered = true
	j.prior = faultStats(st.Faults)
	s.enqueueLocked(j)
	// The crash already admitted this job once; re-reserve its queue slot
	// so the ladder's tenant accounting matches the rebuilt queue.
	s.adm.enqueued(j.tenant)
}

// restoredState maps a journal terminal state onto the job lifecycle.
func restoredState(st string) jobState {
	switch st {
	case journal.StateDone:
		return stateDone
	case journal.StateFailed:
		return stateFailed
	default:
		return stateCanceled
	}
}

// faultStats converts journaled fault counters into the runtime form: nil
// when there are none.
func faultStats(fc journal.FaultCounts) *skandium.FaultStats {
	if fc == (journal.FaultCounts{}) {
		return nil
	}
	return &skandium.FaultStats{
		Retries: fc.Retries, Faults: fc.Faults, Timeouts: fc.Timeouts,
		Skipped: fc.Skipped, Substituted: fc.Substituted,
	}
}

// toJournalSpec converts a submission into its durable form (API units).
func toJournalSpec(spec SubmitSpec, program string) journal.Spec {
	return journal.Spec{
		Skeleton:       spec.Skeleton,
		Program:        program,
		Params:         spec.Params,
		GoalMS:         durToMS(spec.Goal),
		MaxLP:          spec.MaxLP,
		InitialLP:      spec.InitialLP,
		Policy:         spec.Policy,
		TimeoutMS:      durToMS(spec.MuscleTimeout),
		Retries:        spec.RetryAttempts,
		RetryBackoffMS: durToMS(spec.RetryBackoff),
		Partial:        spec.Partial,
		Substitute:     spec.Substitute,
		Tenant:         spec.Tenant,
		Priority:       spec.Priority,
	}
}

// fromJournalSpec is the inverse, for a recovered job and for a POST /jobs
// body, which is decoded as a journal.Spec.
func fromJournalSpec(js journal.Spec) SubmitSpec {
	return SubmitSpec{
		Skeleton:      js.Skeleton,
		Params:        js.Params,
		Goal:          msToDur(js.GoalMS),
		MaxLP:         js.MaxLP,
		InitialLP:     js.InitialLP,
		Policy:        js.Policy,
		MuscleTimeout: msToDur(js.TimeoutMS),
		RetryAttempts: js.Retries,
		RetryBackoff:  msToDur(js.RetryBackoffMS),
		Partial:       js.Partial,
		Substitute:    js.Substitute,
		Tenant:        js.Tenant,
		Priority:      js.Priority,
	}
}

func durToMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func msToDur(ms float64) time.Duration {
	return time.Duration(ms * float64(time.Millisecond))
}
