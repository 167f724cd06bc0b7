package plan

import (
	"strings"
	"sync"
	"testing"

	"skandium/internal/muscle"
	"skandium/internal/skel"
)

func fe(name string) *muscle.Muscle {
	return muscle.NewExecute(name, func(p any) (any, error) { return p, nil })
}

func fc(name string) *muscle.Muscle {
	return muscle.NewCondition(name, func(p any) (bool, error) { return false, nil })
}

func fs(name string) *muscle.Muscle {
	return muscle.NewSplit(name, func(p any) ([]any, error) { return []any{p}, nil })
}

func fm(name string) *muscle.Muscle {
	return muscle.NewMerge(name, func(ps []any) (any, error) { return ps[0], nil })
}

// everyKind is one tree containing all nine skeleton kinds.
func everyKind() *skel.Node {
	return skel.NewPipe(
		skel.NewSeq(fe("a")),
		skel.NewFarm(skel.NewSeq(fe("b"))),
		skel.NewFor(3, skel.NewSeq(fe("c"))),
		skel.NewWhile(fc("w"), skel.NewSeq(fe("d"))),
		skel.NewIf(fc("i"), skel.NewSeq(fe("t")), skel.NewSeq(fe("f"))),
		skel.NewMap(fs("ms"), skel.NewSeq(fe("m")), fm("mm")),
		skel.NewFork(fs("ks"), []*skel.Node{skel.NewSeq(fe("k0")), skel.NewSeq(fe("k1"))}, fm("km")),
		skel.NewDaC(fc("dc"), fs("ds"), skel.NewSeq(fe("dl")), fm("dm")),
	)
}

func TestCompileOpsAndSlots(t *testing.T) {
	nd := everyKind()
	p, err := Compile(nd)
	if err != nil {
		t.Fatal(err)
	}
	root := p.Root()
	if root.Op() != OpStages || root.Node() != nd || root.Kind() != skel.Pipe {
		t.Fatalf("root step: op=%v node=%p kind=%v", root.Op(), root.Node(), root.Kind())
	}
	wantOps := []Op{OpExec, OpWrap, OpRepeat, OpLoop, OpSelect, OpFanOut, OpFanFixed, OpRecurse}
	if len(root.Children()) != len(wantOps) {
		t.Fatalf("%d stages, want %d", len(root.Children()), len(wantOps))
	}
	for i, want := range wantOps {
		if got := root.Child(i).Op(); got != want {
			t.Fatalf("stage %d: op %v, want %v", i, got, want)
		}
	}
	if root.Child(0).Exec().Name() != "a" {
		t.Fatal("exec slot not resolved")
	}
	if st := root.Child(2); st.N() != 3 {
		t.Fatalf("repeat n=%d, want 3", st.N())
	}
	if st := root.Child(3); st.Cond().Name() != "w" {
		t.Fatal("loop cond slot not resolved")
	}
	if st := root.Child(5); st.Split().Name() != "ms" || st.Merge().Name() != "mm" {
		t.Fatal("fan-out split/merge slots not resolved")
	}
	if st := root.Child(7); st.Cond().Name() != "dc" || st.Split().Name() != "ds" || st.Merge().Name() != "dm" {
		t.Fatal("recurse slots not resolved")
	}
}

func TestCompileTracesAndIndexes(t *testing.T) {
	nd := everyKind()
	p, err := Compile(nd)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range p.Steps() {
		if st.Index() != i {
			t.Fatalf("step %d reports index %d", i, st.Index())
		}
		tr := st.Trace()
		if len(tr) == 0 || tr[len(tr)-1] != st.Node() || tr[0] != nd {
			t.Fatalf("step %d: malformed trace (len %d)", i, len(tr))
		}
		for _, c := range st.Children() {
			if len(c.Trace()) != len(tr)+1 {
				t.Fatalf("child trace len %d, want %d", len(c.Trace()), len(tr)+1)
			}
		}
	}
	if walk := preorder(p.Root(), nil); len(walk) != p.Len() {
		t.Fatalf("walk from Root reaches %d steps, want %d", len(walk), p.Len())
	} else {
		for i, st := range walk {
			if st != p.Steps()[i] {
				t.Fatalf("walk from Root reaches step %d at position %d", st.Index(), i)
			}
		}
	}
	if p.Len() != len(p.Steps()) {
		t.Fatal("Len disagrees with Steps")
	}
}

func TestCompileRejectsInvalidTree(t *testing.T) {
	// Constructors validate eagerly, so the only invalid tree reachable
	// through the public API is the nil skeleton.
	if _, err := Compile(nil); err == nil {
		t.Fatal("Compile accepted a nil tree")
	}
}

func TestOfCachesOnNode(t *testing.T) {
	nd := everyKind()
	p1, err := Of(nd)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Of(nd)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("Of compiled twice for the same node")
	}
}

func TestOfConcurrentSingleProgram(t *testing.T) {
	nd := everyKind()
	const goroutines = 16
	progs := make([]*Program, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := Of(nd)
			if err != nil {
				t.Error(err)
				return
			}
			progs[i] = p
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if progs[i] != progs[0] {
			t.Fatal("concurrent Of returned distinct programs")
		}
	}
}

// TestSharedSubtreeNeverObservesStalePlan: plans are cached per root node,
// so two hand-built trees sharing a subtree each compile their own program,
// and neither leaks into the other or into the subtree's own cached plan.
func TestSharedSubtreeNeverObservesStalePlan(t *testing.T) {
	double := muscle.NewExecute("double", func(p any) (any, error) { return p.(int) * 2, nil })
	inc := muscle.NewExecute("inc", func(p any) (any, error) { return p.(int) + 1, nil })
	shared := skel.NewPipe(skel.NewSeq(double), skel.NewSeq(inc))

	before, err := Of(shared)
	if err != nil {
		t.Fatal(err)
	}
	if before.Len() != 3 { // pipe + 2 seqs
		t.Fatalf("shared subtree program has %d steps, want 3", before.Len())
	}

	farmed := skel.NewFarm(shared)
	piped := skel.NewPipe(shared, skel.NewSeq(inc))
	for _, tc := range []struct {
		root  *skel.Node
		steps int
		op    Op
	}{
		{farmed, 4, OpWrap},  // farm + pipe + 2 seqs
		{piped, 5, OpStages}, // pipe + (pipe + 2 seqs) + seq
	} {
		p, err := Of(tc.root)
		if err != nil {
			t.Fatal(err)
		}
		if p == before {
			t.Fatalf("%s shares the subtree's cached plan", tc.root)
		}
		if p.Node() != tc.root || p.Root().Op() != tc.op || p.Len() != tc.steps {
			t.Fatalf("%s: program rooted at %s, op %v, %d steps; want op %v, %d steps",
				tc.root, p.Node(), p.Root().Op(), p.Len(), tc.op, tc.steps)
		}
	}
	// The subtree's own cache is untouched.
	again, err := Of(shared)
	if err != nil {
		t.Fatal(err)
	}
	if again != before || again.Len() != 3 {
		t.Fatal("shared subtree's cached plan changed after its parents compiled")
	}
}

// TestSharedSubtreeKeepsValidPlan: a subtree reused by two trees keeps its
// cached plan, which still describes exactly that subtree, and each tree's
// program reaches the subtree under its own trace — caching is per-node and
// nodes are immutable.
func TestSharedSubtreeKeepsValidPlan(t *testing.T) {
	body := skel.NewMap(fs("s"), skel.NewSeq(fe("e")), fm("m"))
	sub, err := Of(body)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		root  *skel.Node
		depth int // trace length of body's step within root's program
	}{
		{skel.NewFarm(skel.NewFarm(body)), 3},
		{skel.NewPipe(skel.NewSeq(fe("pre")), body), 2},
	} {
		p, err := Of(tc.root)
		if err != nil {
			t.Fatal(err)
		}
		var st *Step
		for _, s := range preorder(p.Root(), nil) {
			if s.Node() == body {
				st = s
				break
			}
		}
		if st == nil || st.Op() != OpFanOut || len(st.Trace()) != tc.depth || st.Trace()[0] != tc.root {
			t.Fatalf("%s: shared subtree step %v not reached under the tree's own trace", tc.root, st)
		}
	}
	if sub2, err := Of(body); err != nil || sub2 != sub || sub2.Node() != body || sub2.Len() != 2 {
		t.Fatalf("shared subtree plan changed: %v %v", sub2, err)
	}
}

// preorder appends st and every step below it to out, in pre-order.
func preorder(st *Step, out []*Step) []*Step {
	out = append(out, st)
	for _, c := range st.Children() {
		out = preorder(c, out)
	}
	return out
}

func TestExtendTrace(t *testing.T) {
	a, b, c := skel.NewSeq(fe("a")), skel.NewSeq(fe("b")), skel.NewSeq(fe("c"))
	base := ExtendTrace(nil, a)
	t1 := ExtendTrace(base, b)
	t2 := ExtendTrace(base, c)
	if len(base) != 1 || base[0] != a {
		t.Fatalf("base trace %v", base)
	}
	if len(t1) != 2 || t1[1] != b || len(t2) != 2 || t2[1] != c {
		t.Fatalf("extended traces %v %v", t1, t2)
	}
	if base[0] != a {
		t.Fatal("ExtendTrace mutated its input")
	}
}

func TestDump(t *testing.T) {
	p, err := Of(everyKind())
	if err != nil {
		t.Fatal(err)
	}
	d := p.Dump()
	for _, want := range []string{"stages", "exec", "wrap", "repeat", "loop", "select",
		"fan-out", "fan-fixed", "recurse", "n=3", "fc=w", "fs=ms", "fe=a", "fm=mm"} {
		if !strings.Contains(d, want) {
			t.Fatalf("Dump missing %q:\n%s", want, d)
		}
	}
	if !strings.HasPrefix(d, "program ") {
		t.Fatalf("Dump header: %q", d)
	}
}

// TestOfSharedSubtreeRace: racing plan.Of callers on two distinct roots
// sharing a subtree each observe exactly one cached program per node.
func TestOfSharedSubtreeRace(t *testing.T) {
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
}
