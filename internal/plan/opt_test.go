package plan

import (
	"sync"
	"testing"
	"time"

	"skandium/internal/muscle"
	"skandium/internal/skel"
)

// fakeEst is a map-backed EstimateSource for analytic-pass tests.
type fakeEst struct {
	dur  map[muscle.ID]time.Duration
	card map[muscle.ID]float64
}

func (f fakeEst) Duration(id muscle.ID) (time.Duration, bool) { d, ok := f.dur[id]; return d, ok }
func (f fakeEst) Card(id muscle.ID) (float64, bool)           { c, ok := f.card[id]; return c, ok }

func mustCompile(t *testing.T, nd *skel.Node) *Program {
	t.Helper()
	p, err := Compile(nd)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestAnalyticWorkAndSpan(t *testing.T) {
	split, body1, body2, merge := fs("s"), fe("a"), fe("b"), fm("m")
	nd := skel.NewMap(split, skel.NewPipe(skel.NewSeq(body1), skel.NewSeq(body2)), merge)
	opt := Optimize(mustCompile(t, nd))
	a := opt.Root().Analytic()
	if a == nil {
		t.Fatal("static map not specialized")
	}
	ms := time.Millisecond
	est := fakeEst{
		dur: map[muscle.ID]time.Duration{
			split.ID(): 10 * ms, body1.ID(): 15 * ms, body2.ID(): 5 * ms, merge.ID(): 5 * ms,
		},
		card: map[muscle.ID]float64{split.ID(): 3},
	}
	if w, miss := a.Work(est); miss != nil || w != 75*ms { // 10 + 3·(15+5) + 5
		t.Fatalf("work = %v (miss %v), want 75ms", w, miss)
	}
	if s, miss := a.Span(est); miss != nil || s != 35*ms { // 10 + (15+5) + 5
		t.Fatalf("span = %v (miss %v), want 35ms", s, miss)
	}
	// Work needs |s|; span does not.
	delete(est.card, split.ID())
	if _, miss := a.Work(est); miss == nil || miss.M != split || !miss.Card {
		t.Fatalf("missing-card detection: %+v", miss)
	}
	if _, miss := a.Span(est); miss != nil {
		t.Fatalf("span consulted the cardinality: %+v", miss)
	}
	// A missing duration fails both.
	delete(est.dur, body2.ID())
	if _, miss := a.Span(est); miss == nil || miss.M != body2 || miss.Card {
		t.Fatalf("missing-duration detection: %+v", miss)
	}
}

func TestAnalyticStopsAtDynamicControl(t *testing.T) {
	nd := skel.NewPipe(
		skel.NewWhile(fc("w"), skel.NewSeq(fe("a"))),
		skel.NewMap(fs("s"), skel.NewSeq(fe("e")), fm("m")),
	)
	opt := Optimize(mustCompile(t, nd))
	root := opt.Root()
	if root.Analytic() != nil {
		t.Fatal("subtree with a while-loop specialized")
	}
	if root.Child(0).Analytic() != nil {
		t.Fatal("loop step specialized")
	}
	// The loop body and the map are the maximal static subtrees.
	if root.Child(0).Child(0).Analytic() == nil {
		t.Fatal("static loop body not specialized")
	}
	if root.Child(1).Analytic() == nil {
		t.Fatal("static map not specialized")
	}
	if root.Child(1).Child(0).Analytic() != nil {
		t.Fatal("nested static step annotated under a specialized parent")
	}
}

func TestOptimizePreservesStructure(t *testing.T) {
	raw := mustCompile(t, everyKind())
	opt, reports := OptimizeWithReport(raw)
	if len(reports) == 0 {
		t.Fatal("no pass reports")
	}
	if opt == raw {
		t.Fatal("Optimize returned its input")
	}
	rs, os := raw.Steps(), opt.Steps()
	if len(rs) != len(os) {
		t.Fatalf("step count changed: %d -> %d", len(rs), len(os))
	}
	for i := range rs {
		r, o := rs[i], os[i]
		if o.Index() != r.Index() || o.Op() != r.Op() || o.Node() != r.Node() || o.Kind() != r.Kind() {
			t.Fatalf("step %d identity changed", i)
		}
		if o.Exec() != r.Exec() || o.Split() != r.Split() || o.Merge() != r.Merge() ||
			o.Cond() != r.Cond() || o.N() != r.N() {
			t.Fatalf("step %d slots changed", i)
		}
		if len(o.Trace()) != len(r.Trace()) {
			t.Fatalf("step %d trace depth changed", i)
		}
		if len(o.Children()) != len(r.Children()) {
			t.Fatalf("step %d arity changed", i)
		}
		if opt.StepFor(r.Node().ID()) == nil {
			t.Fatalf("step %d lost its byID entry", i)
		}
		if r.Analytic() != nil {
			t.Fatalf("Optimize annotated its input at step #%d", i)
		}
	}
}

func TestOfCachesOptimizedProgram(t *testing.T) {
	nd := skel.NewPipe(
		skel.NewSeq(fe("a")),
		skel.NewSeq(fe("b")),
		skel.NewMap(fs("s"), skel.NewSeq(fe("e")), fm("m")),
	)
	p1, err := Of(nd)
	if err != nil {
		t.Fatal(err)
	}
	annotated := false
	for _, s := range p1.Steps() {
		if s.Analytic() != nil {
			annotated = true
		}
	}
	if !annotated {
		t.Fatal("Of cached an unoptimized program with the optimizer enabled")
	}
	if p2, _ := Of(nd); p2 != p1 {
		t.Fatal("Of re-optimized an already cached node")
	}
}

// TestRewriteOptimizeRace: racing plan.Of callers on two distinct roots
// sharing a subtree each observe exactly one cached program per node, and
// every published program carries the optimizer's annotations.
func TestRewriteOptimizeRace(t *testing.T) {
	shared := skel.NewFor(2, skel.NewSeq(fe("z")))
	a := skel.NewPipe(skel.NewSeq(fe("x")), skel.NewSeq(fe("y")), shared)
	b := skel.NewMap(fs("s"), shared, fm("m"))
	const goroutines = 24
	pa := make([]*Program, goroutines)
	pb := make([]*Program, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				pa[i], _ = Of(a)
				pb[i], _ = Of(b)
			} else {
				pb[i], _ = Of(b)
				pa[i], _ = Of(a)
			}
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if pa[i] != pa[0] || pb[i] != pb[0] {
			t.Fatal("racing Of calls observed distinct programs for one node")
		}
	}
	if pa[0] == pb[0] {
		t.Fatal("distinct roots share a program")
	}
	for _, p := range []*Program{pa[0], pb[0]} {
		if p.Root().Analytic() == nil {
			t.Fatalf("cached program for %s is not optimized", p.Node())
		}
	}
}
