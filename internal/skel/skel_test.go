package skel

import (
	"strings"
	"testing"

	"skandium/internal/muscle"
)

func fe() *muscle.Muscle {
	return muscle.NewExecute("fe", func(p any) (any, error) { return p, nil })
}

func fs() *muscle.Muscle {
	return muscle.NewSplit("fs", func(p any) ([]any, error) { return nil, nil })
}

func fm() *muscle.Muscle {
	return muscle.NewMerge("fm", func(p []any) (any, error) { return nil, nil })
}

func fc() *muscle.Muscle {
	return muscle.NewCondition("fc", func(p any) (bool, error) { return false, nil })
}

func TestConstructorsAndAccessors(t *testing.T) {
	e, s, m, c := fe(), fs(), fm(), fc()
	seq := NewSeq(e)
	if seq.Kind() != Seq || seq.Exec() != e || len(seq.Children()) != 0 {
		t.Fatal("seq accessors")
	}
	mp := NewMap(s, seq, m)
	if mp.Kind() != Map || mp.Split() != s || mp.Merge() != m || mp.Children()[0] != seq {
		t.Fatal("map accessors")
	}
	w := NewWhile(c, seq)
	if w.Kind() != While || w.Cond() != c {
		t.Fatal("while accessors")
	}
	f := NewFor(3, seq)
	if f.Kind() != For || f.N() != 3 {
		t.Fatal("for accessors")
	}
	dac := NewDaC(c, s, seq, m)
	if dac.Kind() != DaC || dac.Cond() != c || dac.Split() != s || dac.Merge() != m {
		t.Fatal("d&c accessors")
	}
	if got := len(dac.Muscles()); got != 3 {
		t.Fatalf("d&c has %d muscles, want 3", got)
	}
}

func TestNodeIDsUnique(t *testing.T) {
	a, b := NewSeq(fe()), NewSeq(fe())
	if a.ID() == b.ID() {
		t.Fatal("node IDs collide")
	}
}

func TestStringMatchesPaperSyntax(t *testing.T) {
	e, s, m, c := fe(), fs(), fm(), fc()
	inner := NewMap(s, NewSeq(e), m)
	outer := NewMap(s, inner, m)
	if got := outer.String(); got != "map(fs, map(fs, seq(fe), fm), fm)" {
		t.Fatalf("got %q", got)
	}
	cases := map[string]*Node{
		"farm(seq(fe))":                    NewFarm(NewSeq(e)),
		"pipe(seq(fe), seq(fe))":           NewPipe(NewSeq(e), NewSeq(e)),
		"while(fc, seq(fe))":               NewWhile(c, NewSeq(e)),
		"if(fc, seq(fe), seq(fe))":         NewIf(c, NewSeq(e), NewSeq(e)),
		"for(4, seq(fe))":                  NewFor(4, NewSeq(e)),
		"fork(fs, {seq(fe), seq(fe)}, fm)": NewFork(s, []*Node{NewSeq(e), NewSeq(e)}, m),
		"d&c(fc, fs, seq(fe), fm)":         NewDaC(c, s, NewSeq(e), m),
	}
	for want, nd := range cases {
		if got := nd.String(); got != want {
			t.Errorf("got %q, want %q", got, want)
		}
	}
}

func TestWalkSizeDepth(t *testing.T) {
	e, s, m := fe(), fs(), fm()
	inner := NewMap(s, NewSeq(e), m)
	outer := NewMap(s, inner, m)
	var kinds []Kind
	var depths []int
	outer.Walk(func(nd *Node, depth int) bool {
		kinds = append(kinds, nd.Kind())
		depths = append(depths, depth)
		return true
	})
	if len(kinds) != 3 || kinds[0] != Map || kinds[2] != Seq {
		t.Fatalf("walk order: %v", kinds)
	}
	if depths[0] != 0 || depths[1] != 1 || depths[2] != 2 {
		t.Fatalf("walk depths: %v, want [0 1 2]", depths)
	}
	// Early stop.
	visits := 0
	outer.Walk(func(*Node, int) bool { visits++; return false })
	if visits != 1 {
		t.Fatalf("early stop visited %d", visits)
	}
}

func TestValidateAcceptsConstructed(t *testing.T) {
	e, s, m, c := fe(), fs(), fm(), fc()
	nodes := []*Node{
		NewSeq(e),
		NewFarm(NewSeq(e)),
		NewPipe(NewSeq(e), NewSeq(e), NewSeq(e)),
		NewWhile(c, NewSeq(e)),
		NewIf(c, NewSeq(e), NewSeq(e)),
		NewFor(2, NewSeq(e)),
		NewMap(s, NewSeq(e), m),
		NewFork(s, []*Node{NewSeq(e)}, m),
		NewDaC(c, s, NewSeq(e), m),
	}
	for _, nd := range nodes {
		if err := nd.Validate(); err != nil {
			t.Errorf("%s: %v", nd, err)
		}
	}
}

func TestValidateNil(t *testing.T) {
	var nd *Node
	if err := nd.Validate(); err == nil {
		t.Fatal("nil skeleton validated")
	}
}

func TestConstructorPanics(t *testing.T) {
	e, s, m, c := fe(), fs(), fm(), fc()
	cases := map[string]func(){
		"seq nil":           func() { NewSeq(nil) },
		"seq wrong kind":    func() { NewSeq(s) },
		"farm nil child":    func() { NewFarm(nil) },
		"pipe single stage": func() { NewPipe(NewSeq(e)) },
		"while wrong cond":  func() { NewWhile(m, NewSeq(e)) },
		"if nil branch":     func() { NewIf(c, NewSeq(e), nil) },
		"for zero":          func() { NewFor(0, NewSeq(e)) },
		"map wrong split":   func() { NewMap(e, NewSeq(e), m) },
		"map wrong merge":   func() { NewMap(s, NewSeq(e), c) },
		"fork no children":  func() { NewFork(s, nil, m) },
		"dac wrong split":   func() { NewDaC(c, m, NewSeq(e), m) },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if rec := recover(); rec == nil {
					t.Errorf("%s: no panic", name)
				} else if !strings.Contains(rec.(string), "skel:") {
					t.Errorf("%s: unexpected panic %v", name, rec)
				}
			}()
			fn()
		}()
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		Seq: "seq", Farm: "farm", Pipe: "pipe", While: "while", If: "if",
		For: "for", Map: "map", Fork: "fork", DaC: "d&c",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d: got %q want %q", int(k), k.String(), s)
		}
	}
}

func TestSharedSubtreeAllowed(t *testing.T) {
	// The same node may appear in several trees (muscle/estimate sharing).
	e, s, m := fe(), fs(), fm()
	leaf := NewSeq(e)
	a := NewMap(s, leaf, m)
	b := NewMap(s, leaf, m)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.Children()[0] != b.Children()[0] {
		t.Fatal("shared leaf not preserved")
	}
}
