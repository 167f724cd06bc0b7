// Package plan compiles a skeleton tree (skel.Node) into an immutable,
// typed program IR that every engine walks instead of re-deriving structure
// from the tree: the interpreter (internal/exec), which the task pool and
// the discrete-event simulator (internal/sim) both drive, the ADG builder
// and analytic estimators (internal/adg), and the remote coordinator
// (internal/remote).
//
// One compile, many walkers. The paper's WCT guarantee only holds if the
// controller's predictions (simulator, ADG) describe the same computation
// the interpreter actually runs; a single compiled Program makes that
// structural agreement a property of the representation rather than a
// convention between hand-maintained tree walkers. The conformance harness
// (internal/conformance) enforces the remaining behavioural agreement over
// randomized programs.
//
// A Program is compiled once per execution root and cached on the root
// node, so it is shared by all concurrent executions and all consumers; it
// lives exactly as long as the node does. Each Step carries the node, its
// pre-resolved muscle slots, the fan-out/control structure, and the static
// trace from the root — the hot paths of exec and sim read these fields
// directly instead of chasing the tree and re-allocating traces per
// activation.
package plan

import (
	"fmt"

	"skandium/internal/muscle"
	"skandium/internal/skel"
)

// Op is the operation a Step performs — the IR's instruction set. Ops map
// one-to-one onto the paper's skeleton grammar, but name what the engines
// must do rather than what the pattern is called, which is what the
// interpreter, the simulator and the ADG builder actually dispatch on.
type Op uint8

// The IR operations.
const (
	// OpExec runs the execute muscle on the value (seq).
	OpExec Op = iota
	// OpWrap brackets one transparent nested evaluation (farm).
	OpWrap
	// OpStages runs the children in order on the value (pipe).
	OpStages
	// OpRepeat runs the single child exactly N times (for).
	OpRepeat
	// OpLoop repeats the single child while the condition holds (while).
	OpLoop
	// OpSelect evaluates the condition and runs child 0 (true) or 1 (if).
	OpSelect
	// OpFanOut splits, runs the single child once per part in parallel,
	// then merges (map).
	OpFanOut
	// OpFanFixed splits into exactly len(children) parts, runs child i on
	// part i in parallel, then merges (fork).
	OpFanFixed
	// OpRecurse evaluates the condition; while it holds, splits and
	// re-enters this step one level deeper per part, else solves with the
	// single child (d&c).
	OpRecurse
)

// String names the operation.
func (op Op) String() string {
	switch op {
	case OpExec:
		return "exec"
	case OpWrap:
		return "wrap"
	case OpStages:
		return "stages"
	case OpRepeat:
		return "repeat"
	case OpLoop:
		return "loop"
	case OpSelect:
		return "select"
	case OpFanOut:
		return "fan-out"
	case OpFanFixed:
		return "fan-fixed"
	case OpRecurse:
		return "recurse"
	default:
		return fmt.Sprintf("Op(%d)", int(op))
	}
}

// opFor maps a skeleton kind to its IR operation.
func opFor(k skel.Kind) (Op, error) {
	switch k {
	case skel.Seq:
		return OpExec, nil
	case skel.Farm:
		return OpWrap, nil
	case skel.Pipe:
		return OpStages, nil
	case skel.For:
		return OpRepeat, nil
	case skel.While:
		return OpLoop, nil
	case skel.If:
		return OpSelect, nil
	case skel.Map:
		return OpFanOut, nil
	case skel.Fork:
		return OpFanFixed, nil
	case skel.DaC:
		return OpRecurse, nil
	default:
		return 0, fmt.Errorf("plan: unknown skeleton kind %v", k)
	}
}

// Step is one compiled position of a program: the operation, the node it
// came from, the pre-resolved muscle slots, the child steps, and the
// (immutable, shared) static trace from the program root down to this
// position. Steps are immutable after Compile and shared by every
// activation and every event of every execution of the program.
//
// Divide&conquer recursion re-enters the same Step with a longer trace than
// the static one; engines handle that by extending the step's trace once
// per recursion level with ExtendTrace.
type Step struct {
	op       Op
	nd       *skel.Node
	trace    []*skel.Node
	children []*Step

	// Muscle slots, pre-resolved at compile time so the hot path does not
	// chase the node. Nil when the op has no such slot.
	exec  *muscle.Muscle // OpExec
	split *muscle.Muscle // OpFanOut, OpFanFixed, OpRecurse
	merge *muscle.Muscle // OpFanOut, OpFanFixed, OpRecurse
	cond  *muscle.Muscle // OpLoop, OpSelect, OpRecurse

	n     int // OpRepeat: iteration count
	index int // pre-order position within the Program
}

// Op returns the step's operation.
func (s *Step) Op() Op { return s.op }

// Node returns the skeleton node this step was compiled from.
func (s *Step) Node() *skel.Node { return s.nd }

// Kind returns the skeleton kind of the step's node.
func (s *Step) Kind() skel.Kind { return s.nd.Kind() }

// Trace returns the static nesting path from the program root to this
// step's node, inclusive. Callers must not modify it.
func (s *Step) Trace() []*skel.Node { return s.trace }

// Child returns the i-th child step.
func (s *Step) Child(i int) *Step { return s.children[i] }

// Children returns the child steps. Callers must not modify the slice.
func (s *Step) Children() []*Step { return s.children }

// Exec returns the execute muscle slot (OpExec), or nil.
func (s *Step) Exec() *muscle.Muscle { return s.exec }

// Split returns the split muscle slot (fan-out ops), or nil.
func (s *Step) Split() *muscle.Muscle { return s.split }

// Merge returns the merge muscle slot (fan-out ops), or nil.
func (s *Step) Merge() *muscle.Muscle { return s.merge }

// Cond returns the condition muscle slot (control ops), or nil.
func (s *Step) Cond() *muscle.Muscle { return s.cond }

// N returns the repetition count of an OpRepeat step (zero otherwise).
func (s *Step) N() int { return s.n }

// Index returns the step's pre-order position within its Program.
func (s *Step) Index() int { return s.index }

// Program is the compiled form of one skeleton tree, rooted at Node. It is
// immutable and safe for concurrent use.
type Program struct {
	node  *skel.Node
	root  *Step
	steps []*Step // pre-order
}

// Compile builds the program IR for executions rooted at node. The tree is
// validated first, so a compiled Program is always structurally sound.
// Compile is deterministic and side-effect free; use Of for the cached
// variant engines share.
func Compile(node *skel.Node) (*Program, error) {
	if err := node.Validate(); err != nil {
		return nil, err
	}
	p := &Program{node: node}
	root, err := p.compile(node, nil)
	if err != nil {
		return nil, err
	}
	p.root = root
	return p, nil
}

func (p *Program) compile(nd *skel.Node, parentTrace []*skel.Node) (*Step, error) {
	op, err := opFor(nd.Kind())
	if err != nil {
		return nil, err
	}
	s := &Step{
		op:    op,
		nd:    nd,
		trace: ExtendTrace(parentTrace, nd),
		exec:  nd.Exec(),
		split: nd.Split(),
		merge: nd.Merge(),
		cond:  nd.Cond(),
		n:     nd.N(),
		index: len(p.steps),
	}
	p.steps = append(p.steps, s)
	if kids := nd.Children(); len(kids) > 0 {
		s.children = make([]*Step, len(kids))
		for i, c := range kids {
			cs, err := p.compile(c, s.trace)
			if err != nil {
				return nil, err
			}
			s.children[i] = cs
		}
	}
	return s, nil
}

// Of returns the compiled program for executions rooted at node, compiling
// and caching it on the node on first use. The cached Program is shared by
// all concurrent executions and all consumers of node; it stays alive
// exactly as long as the node does (it is stored on the node, not in a
// global table), so a tree built from fresh nodes never sees another tree's
// program, and a subtree shared by two trees keeps the program compiled for
// executions rooted at it. Racing callers may each compile, but the CAS
// publish keeps the first, so all of them return the one cached program.
func Of(node *skel.Node) (*Program, error) {
	if c := node.CachedPlan(); c != nil {
		return c.(*Program), nil
	}
	p, err := Compile(node)
	if err != nil {
		return nil, err
	}
	return node.CachePlan(p).(*Program), nil
}

// Optimize returns p unchanged. No optimizer pass remains: a program has
// one form, Compile's. Its only caller is the end-to-end benchmark's
// plan.compile probe (bench/probes.go); once that call goes, so does
// Optimize.
func Optimize(p *Program) *Program { return p }

// Node returns the skeleton root the program was compiled from.
func (p *Program) Node() *skel.Node { return p.node }

// Root returns the entry step.
func (p *Program) Root() *Step { return p.root }

// Steps returns every step in pre-order. Callers must not modify the slice.
func (p *Program) Steps() []*Step { return p.steps }

// Len returns the number of steps.
func (p *Program) Len() int { return len(p.steps) }

// ExtendTrace returns a fresh trace slice extending base with nd. The
// static traces of a program are precomputed once at compile time; engines
// call this only for divide&conquer recursion, whose trace grows once per
// recursion level, and the compiler itself uses it to build the static
// traces.
func ExtendTrace(base []*skel.Node, nd *skel.Node) []*skel.Node {
	tr := make([]*skel.Node, len(base)+1)
	copy(tr, base)
	tr[len(base)] = nd
	return tr
}
