package event

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"skandium/internal/muscle"
	"skandium/internal/skel"
)

func seqNode() *skel.Node {
	fe := muscle.NewExecute("fe", func(p any) (any, error) { return p, nil })
	return skel.NewSeq(fe)
}

func mapNode() *skel.Node {
	fs := muscle.NewSplit("fs", func(p any) ([]any, error) { return nil, nil })
	fe := muscle.NewExecute("fe", func(p any) (any, error) { return p, nil })
	fm := muscle.NewMerge("fm", func(p []any) (any, error) { return nil, nil })
	return skel.NewMap(fs, skel.NewSeq(fe), fm)
}

func TestEmitThreadsParam(t *testing.T) {
	r := NewRegistry()
	r.Add(Func(func(e *Event) any { return e.Param.(int) + 1 }))
	r.Add(Func(func(e *Event) any { return e.Param.(int) * 10 }))
	nd := seqNode()
	out := r.Emit(&Event{Node: nd, Param: 5})
	if out != 60 { // (5+1)*10, in registration order
		t.Fatalf("got %v, want 60", out)
	}
}

func TestEmitNoListeners(t *testing.T) {
	r := NewRegistry()
	nd := seqNode()
	if out := r.Emit(&Event{Node: nd, Param: "x"}); out != "x" {
		t.Fatalf("got %v", out)
	}
}

func TestFilterByWhenWhere(t *testing.T) {
	r := NewRegistry()
	var got []string
	r.AddFiltered(Func(func(e *Event) any {
		got = append(got, e.String())
		return e.Param
	}), Filter{When: After, HasWhen: true, Where: Split, HasWhere: true})
	nd := mapNode()
	r.Emit(&Event{Node: nd, When: Before, Where: Split, Index: 1})
	r.Emit(&Event{Node: nd, When: After, Where: Split, Index: 1, Card: 3})
	r.Emit(&Event{Node: nd, When: After, Where: Merge, Index: 1})
	if len(got) != 1 || got[0] != "map@as(1)" {
		t.Fatalf("got %v", got)
	}
}

func TestFilterByNodeAndKind(t *testing.T) {
	r := NewRegistry()
	a, b := seqNode(), seqNode()
	hits := 0
	r.AddFiltered(Func(func(e *Event) any { hits++; return e.Param }), Filter{Node: a})
	r.Emit(&Event{Node: a})
	r.Emit(&Event{Node: b})
	if hits != 1 {
		t.Fatalf("node filter hits = %d, want 1", hits)
	}
	kindHits := 0
	r.AddFiltered(Func(func(e *Event) any { kindHits++; return e.Param }),
		Filter{Kind: skel.Map, HasKind: true})
	r.Emit(&Event{Node: mapNode()})
	r.Emit(&Event{Node: a})
	if kindHits != 1 {
		t.Fatalf("kind filter hits = %d, want 1", kindHits)
	}
}

func TestRemoveListener(t *testing.T) {
	r := NewRegistry()
	hits := 0
	sub := r.Add(Func(func(e *Event) any { hits++; return e.Param }))
	nd := seqNode()
	r.Emit(&Event{Node: nd})
	r.Remove(sub)
	r.Emit(&Event{Node: nd})
	if hits != 1 {
		t.Fatalf("hits = %d, want 1", hits)
	}
	r.Remove(sub) // double remove is a no-op
	if r.Len() != 0 {
		t.Fatalf("len = %d, want 0", r.Len())
	}
}

func TestListenerCanUnregisterDuringEmit(t *testing.T) {
	r := NewRegistry()
	var sub Subscription
	fired := 0
	sub = r.Add(Func(func(e *Event) any {
		fired++
		r.Remove(sub) // must not deadlock
		return e.Param
	}))
	nd := seqNode()
	r.Emit(&Event{Node: nd})
	r.Emit(&Event{Node: nd})
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
}

func TestConcurrentEmitAndRegister(t *testing.T) {
	r := NewRegistry()
	nd := seqNode()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Emit(&Event{Node: nd, Param: i})
			}
		}()
	}
	for i := 0; i < 100; i++ {
		sub := r.Add(Func(func(e *Event) any { return e.Param }))
		r.Remove(sub)
	}
	wg.Wait()
}

func TestEventStringNotation(t *testing.T) {
	nd := mapNode()
	cases := []struct {
		when  When
		where Where
		want  string
	}{
		{Before, Skeleton, "map@b(7)"},
		{After, Skeleton, "map@a(7)"},
		{Before, Split, "map@bs(7)"},
		{After, Split, "map@as(7)"},
		{Before, Merge, "map@bm(7)"},
		{After, Merge, "map@am(7)"},
		{Before, NestedSkel, "map@bn(7)"},
		{After, Condition, "map@ac(7)"},
	}
	for _, tc := range cases {
		e := &Event{Node: nd, When: tc.when, Where: tc.where, Index: 7}
		if got := e.String(); got != tc.want {
			t.Errorf("%v/%v: got %q, want %q", tc.when, tc.where, got, tc.want)
		}
	}
}

// TestNotationMatchesLegacyFormat pins the switch+strconv renderer to the
// map-literal+Sprintf one it replaced, over every When × Where × Kind
// (one value past each enum's end included) and awkward indices.
func TestNotationMatchesLegacyFormat(t *testing.T) {
	legacy := func(kind skel.Kind, when When, where Where, index int64) string {
		code := map[Where]string{
			Skeleton: "", Split: "s", Merge: "m", Condition: "c", NestedSkel: "n",
			Retry: "r", Fault: "f",
		}[where]
		wh := "b"
		if when == After {
			wh = "a"
		}
		return fmt.Sprintf("%s@%s%s(%d)", kind, wh, code, index)
	}
	for kind := skel.Seq; kind <= skel.DaC+1; kind++ {
		for when := Before; when <= After+1; when++ {
			for where := Skeleton; where <= Fault+1; where++ {
				for _, index := range []int64{0, 7, -1, 1<<63 - 1, -1 << 63} {
					got := string(AppendNotation(nil, kind, when, where, index))
					if want := legacy(kind, when, where, index); got != want {
						t.Fatalf("kind %d when %d where %d index %d: got %q, want %q",
							kind, when, where, index, got, want)
					}
				}
			}
		}
	}
	e := &Event{Node: seqNode(), When: After, Where: Fault, Index: 1 << 40}
	if got, want := e.String(), legacy(skel.Seq, After, Fault, 1<<40); got != want {
		t.Fatalf("String: got %q, want %q", got, want)
	}
}

func TestWhenWhereStrings(t *testing.T) {
	if fmt.Sprint(Before, After) != "before after" {
		t.Fatalf("When strings: %v %v", Before, After)
	}
	for w, want := range map[Where]string{
		Skeleton: "skeleton", Split: "split", Merge: "merge",
		Condition: "condition", NestedSkel: "nested",
	} {
		if w.String() != want {
			t.Errorf("%d: got %q want %q", int(w), w.String(), want)
		}
	}
}

func TestCurrentSkel(t *testing.T) {
	nd := mapNode()
	inner := nd.Children()[0]
	e := &Event{Node: inner, Trace: []*skel.Node{nd, inner}}
	if e.CurrentSkel() != inner {
		t.Fatal("CurrentSkel is not the event's node")
	}
}

func TestNilListenerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewRegistry().Add(nil)
}

// TestFilterMatchProperty: a filter with no constraints matches everything;
// adding any single constraint only ever removes matches.
func TestFilterMatchProperty(t *testing.T) {
	nodes := []*skel.Node{seqNode(), mapNode()}
	f := func(whenRaw, whereRaw, kindRaw, nodeIdx uint8) bool {
		e := &Event{
			Node:  nodes[int(nodeIdx)%len(nodes)],
			When:  When(whenRaw % 2),
			Where: Where(whereRaw % 5),
		}
		if !(Filter{}).Matches(e) {
			return false
		}
		base := Filter{}
		narrowed := []Filter{
			{When: When(whenRaw % 2), HasWhen: true},
			{Where: Where(whereRaw % 5), HasWhere: true},
			{Kind: skel.Kind(kindRaw % 9), HasKind: true},
			{Node: nodes[0]},
		}
		for _, n := range narrowed {
			if n.Matches(e) && !base.Matches(e) {
				return false // narrowing cannot add matches
			}
		}
		// A filter exactly describing the event always matches.
		exact := Filter{
			Node: e.Node,
			Kind: e.Node.Kind(), HasKind: true,
			When: e.When, HasWhen: true,
			Where: e.Where, HasWhere: true,
		}
		return exact.Matches(e)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
