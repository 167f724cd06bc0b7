package adg

import (
	"strings"
	"testing"
	"time"

	"skandium/internal/clock"
	"skandium/internal/estimate"
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

func TestSeriesExport(t *testing.T) {
	g := renderGraph(t)
	series := g.Series(time.Millisecond)
	if len(series) == 0 {
		t.Fatal("empty series")
	}
	// First step: one activity (the split) active at t=0.
	if series[0][0] != 0 || series[0][1] != 1 {
		t.Fatalf("first point %v", series[0])
	}
	last := series[len(series)-1]
	if last[1] != 0 {
		t.Fatalf("series does not end idle: %v", last)
	}
	// Monotone time.
	for i := 1; i < len(series); i++ {
		if series[i][0] < series[i-1][0] {
			t.Fatalf("series time regressed at %d", i)
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
