package adg

import (
	"strings"
	"testing"
	"time"

	"skandium/internal/clock"
	"skandium/internal/estimate"
	"skandium/internal/muscle"
	"skandium/internal/skel"
)

func renderGraph(t *testing.T) *Graph {
	t.Helper()
	est := estimate.NewRegistry(estimate.DefaultRho)
	fe, fs, fm, _ := mkMuscles(est, u(15), u(10), u(5), 0, 3)
	nd := skel.NewMap(fs, skel.NewSeq(fe), fm)
	g, err := Builder{Est: est}.BuildVirtual(nd, clock.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	g.ScheduleBestEffort()
	return g
}

func TestRenderContainsActivities(t *testing.T) {
	g := renderGraph(t)
	out := g.Render(time.Millisecond)
	for _, want := range []string{"fs", "fe", "fm", "pending", "5 activities"} {
		if !strings.Contains(out, want) {
			t.Errorf("render lacks %q:\n%s", want, out)
		}
	}
	// Best-effort schedule: fs [0,10), fe [10,25), fm [25,30).
	if !strings.Contains(out, "[      0      10)") {
		t.Errorf("split interval missing:\n%s", out)
	}
	if !strings.Contains(out, "[     25      30)") {
		t.Errorf("merge interval missing:\n%s", out)
	}
}

func TestRenderTimelineSteps(t *testing.T) {
	g := renderGraph(t)
	out := g.RenderTimeline(time.Millisecond)
	if !strings.Contains(out, "t      active") {
		t.Fatalf("missing header:\n%s", out)
	}
	// Peak of 3 during the fe phase renders three blocks.
	if !strings.Contains(out, "███") {
		t.Fatalf("missing 3-level bar:\n%s", out)
	}
}

// TestDOTEscapesLabels: a muscle name with a quote and the record
// delimiters renders as one escaped record label, and every dependency is
// an edge.
func TestDOTEscapesLabels(t *testing.T) {
	est := estimate.NewRegistry(estimate.DefaultRho)
	fe := muscle.NewExecute(`say "hi" {x|y}`, func(p any) (any, error) { return p, nil })
	est.InitDuration(fe.ID(), u(5))
	g, err := Builder{Est: est}.BuildVirtual(skel.NewSeq(fe), clock.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	g.ScheduleBestEffort()
	if out := g.DOT(time.Millisecond); !strings.Contains(out, `label="{say \"hi\" \{x\|y\}|0 .. 5}"`) {
		t.Fatalf("label not escaped:\n%s", out)
	}
	out := renderGraph(t).DOT(time.Millisecond)
	for _, want := range []string{"digraph adg {", "a0 -> a1;", "a0 -> a3;", "a3 -> a4;"} {
		if !strings.Contains(out, want) {
			t.Errorf("dot lacks %q:\n%s", want, out)
		}
	}
}

// TestSeriesExport: the timeline series RenderTimeline prints starts with
// the split alone at 0, runs forward in time and ends idle.
func TestSeriesExport(t *testing.T) {
	g := renderGraph(t)
	steps := g.Timeline()
	if len(steps) == 0 {
		t.Fatal("empty timeline")
	}
	// First step: one activity (the split) active at t=0.
	if steps[0].T != 0 || steps[0].Active != 1 {
		t.Fatalf("first step %+v", steps[0])
	}
	last := steps[len(steps)-1]
	if last.Active != 0 {
		t.Fatalf("timeline does not end idle: %+v", last)
	}
	// Monotone time.
	for i := 1; i < len(steps); i++ {
		if steps[i].T < steps[i-1].T {
			t.Fatalf("timeline time regressed at %d", i)
		}
	}
}

func TestStateStrings(t *testing.T) {
	if Done.String() != "done" || Running.String() != "running" || Pending.String() != "pending" {
		t.Fatal("state strings changed")
	}
}

func TestValidateCatchesCorruptGraph(t *testing.T) {
	g := renderGraph(t)
	// Corrupt: make the first fe depend on the merge (forward edge).
	g.Preds(1)[0] = int32(len(g.Acts) - 1)
	if err := g.Validate(); err == nil {
		t.Fatal("forward dependency accepted")
	}
}

func TestCheckScheduleCatchesViolation(t *testing.T) {
	g := renderGraph(t)
	g.ScheduleBestEffort()
	// Corrupt the merge to start before its predecessors end.
	g.Acts[len(g.Acts)-1].TI = 0
	if err := g.CheckSchedule(0); err == nil {
		t.Fatal("dependency violation accepted")
	}
}
