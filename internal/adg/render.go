package adg

import (
	"fmt"
	"strings"
	"time"

	"skandium/internal/muscle"
	"skandium/internal/skel"
)

// RequiredEstimates lists the muscles whose t(m) (first return) and |m|
// (second return) estimates are needed before an ADG of node can be built.
// The controller gates its first analysis on estimate.Registry.Complete of
// these lists — the paper's "wait until all muscles have been executed at
// least once".
func RequiredEstimates(node *skel.Node) (dur []muscle.ID, card []muscle.ID) {
	seenDur := map[muscle.ID]bool{}
	seenCard := map[muscle.ID]bool{}
	node.Walk(func(nd *skel.Node, _ int) bool {
		for _, m := range nd.Muscles() {
			if !seenDur[m.ID()] {
				seenDur[m.ID()] = true
				dur = append(dur, m.ID())
			}
		}
		switch nd.Kind() {
		case skel.Map:
			addCard(nd.Split(), seenCard, &card)
		case skel.While:
			addCard(nd.Cond(), seenCard, &card)
		case skel.DaC:
			addCard(nd.Cond(), seenCard, &card)
			addCard(nd.Split(), seenCard, &card)
		}
		return true
	})
	return dur, card
}

func addCard(m *muscle.Muscle, seen map[muscle.ID]bool, out *[]muscle.ID) {
	if !seen[m.ID()] {
		seen[m.ID()] = true
		*out = append(*out, m.ID())
	}
}

// Render prints the graph as a table resembling the paper's Fig. 1: one row
// per activity with its scheduled interval, state and predecessors. unit
// scales timestamps (e.g. time.Millisecond prints virtual ms). The graph
// must have been scheduled.
func (g *Graph) Render(unit time.Duration) string {
	var b strings.Builder
	fmt.Fprintf(&b, "ADG @ now=%s (start=0, unit=%v, %d activities)\n",
		fmtT(g.at(g.Now), unit), unit, len(g.Acts))
	for i := range g.Acts {
		a := &g.Acts[i]
		preds := make([]string, 0, a.p1-a.p0)
		for _, p := range g.Preds(i) {
			preds = append(preds, fmt.Sprintf("#%d", p))
		}
		fmt.Fprintf(&b, "  #%-4d %-12s [%7s %7s) %-7s <- %s\n",
			i, g.Label(i), fmtT(a.TI, unit), fmtT(a.TF, unit),
			a.State(), strings.Join(preds, ","))
	}
	return b.String()
}

// RenderTimeline prints the Fig. 2 style step function "active threads vs
// time" of the last schedule.
func (g *Graph) RenderTimeline(unit time.Duration) string {
	var b strings.Builder
	b.WriteString("t      active\n")
	for _, s := range g.Timeline() {
		fmt.Fprintf(&b, "%-7s %d %s\n", fmtT(s.T, unit), s.Active,
			strings.Repeat("█", min(s.Active, 80)))
	}
	return b.String()
}

func fmtT(t, unit time.Duration) string {
	if t == unset {
		return "-"
	}
	return fmt.Sprintf("%.4g", float64(t)/float64(unit))
}

// Validate checks internal graph invariants (DAG order, well-formed
// predecessor ranges). Intended for tests and debugging.
func (g *Graph) Validate() error {
	for i := range g.Acts {
		a := &g.Acts[i]
		if a.p0 < 0 || a.p0 > a.p1 || int(a.p1) > len(g.preds) {
			return fmt.Errorf("adg: activity #%d has predecessor range [%d,%d) outside %d", i, a.p0, a.p1, len(g.preds))
		}
		if s := a.slot; s >= int32(len(g.slots)) {
			return fmt.Errorf("adg: activity #%d runs unknown muscle slot %d", i, s)
		}
		for _, p := range g.Preds(i) {
			if p < 0 || int(p) >= i {
				return fmt.Errorf("adg: activity #%d precedes its predecessor #%d", i, p)
			}
		}
	}
	return nil
}

// CheckSchedule verifies that the last computed schedule respects
// dependencies and, when lp > 0, never uses more than lp slots for
// non-historical work. Done activities are exempt from the lp check (they
// are history). Returns the first violation.
func (g *Graph) CheckSchedule(lp int) error {
	for i := range g.Acts {
		a := &g.Acts[i]
		if a.TF < a.TI {
			return fmt.Errorf("adg: #%d ends before it starts", i)
		}
		for _, p := range g.Preds(i) {
			if pf := g.Acts[p].TF; a.state == Pending && a.TI < pf {
				return fmt.Errorf("adg: #%d starts at %v before pred #%d ends at %v", i, a.TI, p, pf)
			}
		}
	}
	if lp <= 0 {
		return nil
	}
	// Running activities only count from the snapshot on.
	if n, at := peak(g.intervals(g.at(g.Now), false)); n > lp {
		return fmt.Errorf("adg: schedule uses %d > lp=%d slots at %v", n, lp, at)
	}
	return nil
}
