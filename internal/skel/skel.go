// Package skel defines the algorithmic-skeleton algebra of the paper:
//
//	∆ ::= seq(fe) | farm(∆) | pipe(∆1,∆2) | while(fc,∆) | if(fc,∆t,∆f)
//	    | for(n,∆) | map(fs,∆,fm) | fork(fs,{∆},fm) | d&c(fc,fs,∆,fm)
//
// A skeleton program is an immutable tree of Nodes. Nodes are type-erased;
// the typed public API at the module root guarantees that the muscles wired
// into a tree are type-compatible. Each Node has a process-unique identity
// used by the state machines and the ADG to key per-node estimates.
package skel

import (
	"fmt"
	"strings"
	"sync/atomic"

	"skandium/internal/muscle"
)

// Kind enumerates the skeleton patterns.
type Kind int

// Skeleton kinds following the paper's grammar.
const (
	Seq Kind = iota
	Farm
	Pipe
	While
	If
	For
	Map
	Fork
	DaC
)

// String returns the paper's name of the pattern.
func (k Kind) String() string {
	switch k {
	case Seq:
		return "seq"
	case Farm:
		return "farm"
	case Pipe:
		return "pipe"
	case While:
		return "while"
	case If:
		return "if"
	case For:
		return "for"
	case Map:
		return "map"
	case Fork:
		return "fork"
	case DaC:
		return "d&c"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

var lastNodeID atomic.Uint64

// NodeID uniquely identifies a node of a skeleton tree within the process.
type NodeID uint64

// Node is one pattern instance in a skeleton tree. Nodes are created through
// the constructors below and are immutable afterwards; they may be shared by
// several trees and executed concurrently.
type Node struct {
	id       NodeID
	kind     Kind
	exec     *muscle.Muscle // Seq
	split    *muscle.Muscle // Map, Fork, DaC
	merge    *muscle.Muscle // Map, Fork, DaC
	cond     *muscle.Muscle // While, If, DaC
	children []*Node        // Pipe: stages; Farm/While/For/Map/DaC: 1; If: 2; Fork: n
	n        int            // For: iteration count
	// plan caches the compiled program (internal/plan's IR) for executions
	// rooted at this node; opaque here, see plan.go.
	plan atomic.Value
}

func newNode(kind Kind) *Node {
	return &Node{id: NodeID(lastNodeID.Add(1)), kind: kind}
}

// NewSeq builds seq(fe). fe must be an Execute muscle.
func NewSeq(fe *muscle.Muscle) *Node {
	mustKind("seq", "fe", fe, muscle.Execute)
	nd := newNode(Seq)
	nd.exec = fe
	return nd
}

// NewFarm builds farm(∆): task replication over the nested skeleton.
func NewFarm(sub *Node) *Node {
	mustChild("farm", sub)
	nd := newNode(Farm)
	nd.children = []*Node{sub}
	return nd
}

// NewPipe builds pipe(∆1,∆2,...): staged computation. At least two stages
// are required; more than two are treated as the right fold
// pipe(∆1, pipe(∆2, ...)) flattened into a single node.
func NewPipe(stages ...*Node) *Node {
	if len(stages) < 2 {
		panic("skel: pipe requires at least two stages")
	}
	for _, s := range stages {
		mustChild("pipe", s)
	}
	nd := newNode(Pipe)
	nd.children = append([]*Node(nil), stages...)
	return nd
}

// NewWhile builds while(fc,∆): repeat ∆ while fc holds.
func NewWhile(fc *muscle.Muscle, sub *Node) *Node {
	mustKind("while", "fc", fc, muscle.Condition)
	mustChild("while", sub)
	nd := newNode(While)
	nd.cond = fc
	nd.children = []*Node{sub}
	return nd
}

// NewIf builds if(fc,∆true,∆false). The paper's autonomic layer does not
// support If (it would duplicate the ADG); the engine runs it and the ADG
// uses the worst-case branch as an extension (see DESIGN.md §5).
func NewIf(fc *muscle.Muscle, onTrue, onFalse *Node) *Node {
	mustKind("if", "fc", fc, muscle.Condition)
	mustChild("if", onTrue)
	mustChild("if", onFalse)
	nd := newNode(If)
	nd.cond = fc
	nd.children = []*Node{onTrue, onFalse}
	return nd
}

// NewFor builds for(n,∆): execute ∆ exactly n times. n must be positive.
func NewFor(n int, sub *Node) *Node {
	if n <= 0 {
		panic(fmt.Sprintf("skel: for requires n > 0, got %d", n))
	}
	mustChild("for", sub)
	nd := newNode(For)
	nd.n = n
	nd.children = []*Node{sub}
	return nd
}

// NewMap builds map(fs,∆,fm): split, apply ∆ to every sub-problem in
// parallel, merge.
func NewMap(fs *muscle.Muscle, sub *Node, fm *muscle.Muscle) *Node {
	mustKind("map", "fs", fs, muscle.Split)
	mustKind("map", "fm", fm, muscle.Merge)
	mustChild("map", sub)
	nd := newNode(Map)
	nd.split = fs
	nd.merge = fm
	nd.children = []*Node{sub}
	return nd
}

// NewFork builds fork(fs,{∆},fm): like map but sub-problem i is processed by
// skeleton ∆i. The split must produce exactly len(subs) sub-problems at run
// time; the engine reports an error otherwise.
func NewFork(fs *muscle.Muscle, subs []*Node, fm *muscle.Muscle) *Node {
	mustKind("fork", "fs", fs, muscle.Split)
	mustKind("fork", "fm", fm, muscle.Merge)
	if len(subs) == 0 {
		panic("skel: fork requires at least one nested skeleton")
	}
	for _, s := range subs {
		mustChild("fork", s)
	}
	nd := newNode(Fork)
	nd.split = fs
	nd.merge = fm
	nd.children = append([]*Node(nil), subs...)
	return nd
}

// NewDaC builds d&c(fc,fs,∆,fm): while fc holds, split and recurse on each
// sub-problem in parallel, then merge; once fc fails, solve with ∆.
func NewDaC(fc, fs *muscle.Muscle, sub *Node, fm *muscle.Muscle) *Node {
	mustKind("d&c", "fc", fc, muscle.Condition)
	mustKind("d&c", "fs", fs, muscle.Split)
	mustKind("d&c", "fm", fm, muscle.Merge)
	mustChild("d&c", sub)
	nd := newNode(DaC)
	nd.cond = fc
	nd.split = fs
	nd.merge = fm
	nd.children = []*Node{sub}
	return nd
}

func mustKind(pattern, role string, m *muscle.Muscle, k muscle.Kind) {
	if m == nil {
		panic(fmt.Sprintf("skel: %s requires a non-nil %s muscle", pattern, role))
	}
	if m.Kind() != k {
		panic(fmt.Sprintf("skel: %s requires %s of kind %s, got %s", pattern, role, k, m))
	}
}

func mustChild(pattern string, sub *Node) {
	if sub == nil {
		panic(fmt.Sprintf("skel: %s requires a non-nil nested skeleton", pattern))
	}
}

// ID returns the process-unique identity of this node.
func (n *Node) ID() NodeID { return n.id }

// Kind returns the pattern of this node.
func (n *Node) Kind() Kind { return n.kind }

// Children returns the nested skeletons. Callers must not modify the
// returned slice.
func (n *Node) Children() []*Node { return n.children }

// Exec returns the Execute muscle (Seq nodes), or nil.
func (n *Node) Exec() *muscle.Muscle { return n.exec }

// Split returns the Split muscle (Map/Fork/DaC nodes), or nil.
func (n *Node) Split() *muscle.Muscle { return n.split }

// Merge returns the Merge muscle (Map/Fork/DaC nodes), or nil.
func (n *Node) Merge() *muscle.Muscle { return n.merge }

// Cond returns the Condition muscle (While/If/DaC nodes), or nil.
func (n *Node) Cond() *muscle.Muscle { return n.cond }

// N returns the iteration count of a For node (zero otherwise).
func (n *Node) N() int { return n.n }

// Muscles returns all muscles attached directly to this node, in the
// conventional order fc, fs, fe, fm (skipping nils).
func (n *Node) Muscles() []*muscle.Muscle {
	var out []*muscle.Muscle
	for _, m := range []*muscle.Muscle{n.cond, n.split, n.exec, n.merge} {
		if m != nil {
			out = append(out, m)
		}
	}
	return out
}

// Walk visits the tree rooted at n in pre-order, calling fn for every node
// with its depth. Walking stops early if fn returns false.
func (n *Node) Walk(fn func(node *Node, depth int) bool) {
	var rec func(nd *Node, d int) bool
	rec = func(nd *Node, d int) bool {
		if !fn(nd, d) {
			return false
		}
		for _, c := range nd.children {
			if !rec(c, d+1) {
				return false
			}
		}
		return true
	}
	rec(n, 0)
}

// Validate checks structural invariants of the whole tree and reports the
// first violation. Trees built exclusively through the constructors are
// always valid; Validate exists for defence in depth (e.g. programs
// assembled reflectively or deserialized).
func (n *Node) Validate() error {
	if n == nil {
		return fmt.Errorf("skel: nil skeleton")
	}
	var err error
	n.Walk(func(nd *Node, _ int) bool {
		err = nd.validateLocal()
		return err == nil
	})
	return err
}

func (n *Node) validateLocal() error {
	type req struct {
		m    *muscle.Muscle
		kind muscle.Kind
		role string
	}
	var reqs []req
	var wantChildren func(int) bool
	childSpec := ""
	switch n.kind {
	case Seq:
		reqs = []req{{n.exec, muscle.Execute, "fe"}}
		wantChildren, childSpec = func(c int) bool { return c == 0 }, "0"
	case Farm, For:
		wantChildren, childSpec = func(c int) bool { return c == 1 }, "1"
		if n.kind == For && n.n <= 0 {
			return fmt.Errorf("skel: for node #%d has non-positive n=%d", n.id, n.n)
		}
	case Pipe:
		wantChildren, childSpec = func(c int) bool { return c >= 2 }, ">=2"
	case While:
		reqs = []req{{n.cond, muscle.Condition, "fc"}}
		wantChildren, childSpec = func(c int) bool { return c == 1 }, "1"
	case If:
		reqs = []req{{n.cond, muscle.Condition, "fc"}}
		wantChildren, childSpec = func(c int) bool { return c == 2 }, "2"
	case Map:
		reqs = []req{{n.split, muscle.Split, "fs"}, {n.merge, muscle.Merge, "fm"}}
		wantChildren, childSpec = func(c int) bool { return c == 1 }, "1"
	case Fork:
		reqs = []req{{n.split, muscle.Split, "fs"}, {n.merge, muscle.Merge, "fm"}}
		wantChildren, childSpec = func(c int) bool { return c >= 1 }, ">=1"
	case DaC:
		reqs = []req{
			{n.cond, muscle.Condition, "fc"},
			{n.split, muscle.Split, "fs"},
			{n.merge, muscle.Merge, "fm"},
		}
		wantChildren, childSpec = func(c int) bool { return c == 1 }, "1"
	default:
		return fmt.Errorf("skel: node #%d has unknown kind %d", n.id, int(n.kind))
	}
	for _, r := range reqs {
		if r.m == nil {
			return fmt.Errorf("skel: %s node #%d is missing muscle %s", n.kind, n.id, r.role)
		}
		if r.m.Kind() != r.kind {
			return fmt.Errorf("skel: %s node #%d has %s of kind %s, want %s",
				n.kind, n.id, r.role, r.m.Kind(), r.kind)
		}
	}
	if !wantChildren(len(n.children)) {
		return fmt.Errorf("skel: %s node #%d has %d children, want %s",
			n.kind, n.id, len(n.children), childSpec)
	}
	for _, c := range n.children {
		if c == nil {
			return fmt.Errorf("skel: %s node #%d has a nil child", n.kind, n.id)
		}
	}
	return nil
}

// String renders the tree in the paper's concrete syntax, e.g.
// "map(fs, map(fs, seq(fe), fm), fm)".
func (n *Node) String() string {
	var b strings.Builder
	n.render(&b)
	return b.String()
}

func (n *Node) render(b *strings.Builder) {
	if n == nil {
		b.WriteString("<nil>")
		return
	}
	b.WriteString(n.kind.String())
	b.WriteByte('(')
	switch n.kind {
	case Seq:
		b.WriteString(n.exec.Name())
	case Farm:
		n.children[0].render(b)
	case Pipe:
		for i, c := range n.children {
			if i > 0 {
				b.WriteString(", ")
			}
			c.render(b)
		}
	case While:
		b.WriteString(n.cond.Name())
		b.WriteString(", ")
		n.children[0].render(b)
	case If:
		b.WriteString(n.cond.Name())
		b.WriteString(", ")
		n.children[0].render(b)
		b.WriteString(", ")
		n.children[1].render(b)
	case For:
		fmt.Fprintf(b, "%d, ", n.n)
		n.children[0].render(b)
	case Map:
		b.WriteString(n.split.Name())
		b.WriteString(", ")
		n.children[0].render(b)
		b.WriteString(", ")
		b.WriteString(n.merge.Name())
	case Fork:
		b.WriteString(n.split.Name())
		b.WriteString(", {")
		for i, c := range n.children {
			if i > 0 {
				b.WriteString(", ")
			}
			c.render(b)
		}
		b.WriteString("}, ")
		b.WriteString(n.merge.Name())
	case DaC:
		b.WriteString(n.cond.Name())
		b.WriteString(", ")
		b.WriteString(n.split.Name())
		b.WriteString(", ")
		n.children[0].render(b)
		b.WriteString(", ")
		b.WriteString(n.merge.Name())
	}
	b.WriteByte(')')
}
