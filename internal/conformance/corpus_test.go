// Package conformance is the cross-backend differential harness, tests
// only: a seeded random-skeleton-tree generator, a reference evaluator and
// canonical views of an execution that every backend must agree on.
//
// Every consumer of the compiled program IR (internal/plan) — the
// interpreter (internal/exec) under both of its drivers, the task pool and
// the discrete-event simulator (internal/sim), the reference evaluator
// (refeval_test.go) and the ADG builder/estimators (internal/adg) — is run
// over the same generated trees, and the harness asserts that results,
// muscle call counts, activation-tree shapes and ADG spans agree exactly.
// A future remote/distributed backend joins the harness by implementing
// the same seam (exec.Root.StartProgram) and being added to the comparison
// loop in conformance_test.go.
package conformance

import (
	"fmt"
	"math/rand"

	"skandium/internal/muscle"
	"skandium/internal/skel"
)

// Tree is one generated skeleton program plus everything a harness needs to
// run and analyze it: a sample input, the set of muscles (for seeding
// estimate registries) and the exact split cardinalities of the static
// subclass.
type Tree struct {
	Node  *skel.Node
	Input int
	// Muscles lists every muscle in the tree, in construction order.
	Muscles []*muscle.Muscle
	// Cards maps split muscles to their exact, input-independent
	// cardinality. Populated fully only for static trees (Generate may
	// include data-dependent structure with no exact card).
	Cards map[muscle.ID]float64
}

// gen is the seeded generator. Every generated execute muscle maps
// non-negative ints to non-negative ints and is non-decreasing (f(n) >= n),
// which makes while loops with a leading +1 stage strictly increasing
// (termination) and keeps d&c recursion on halvings well-founded.
type gen struct {
	rng     *rand.Rand
	muscles []*muscle.Muscle
	cards   map[muscle.ID]float64
}

func newGen(seed int64) *gen {
	return &gen{rng: rand.New(rand.NewSource(seed)), cards: make(map[muscle.ID]float64)}
}

func (g *gen) reg(m *muscle.Muscle) *muscle.Muscle {
	g.muscles = append(g.muscles, m)
	return m
}

func (g *gen) exec() *skel.Node {
	switch g.rng.Intn(3) {
	case 0:
		k := g.rng.Intn(5)
		return skel.NewSeq(g.reg(muscle.NewExecute(fmt.Sprintf("add%d", k), func(p any) (any, error) {
			return p.(int) + k, nil
		})))
	case 1:
		return skel.NewSeq(g.reg(muscle.NewExecute("double", func(p any) (any, error) {
			return p.(int) * 2, nil
		})))
	default:
		return skel.NewSeq(g.reg(muscle.NewExecute("id", func(p any) (any, error) {
			return p, nil
		})))
	}
}

// splitSum splits n into exactly k parts that sum to n (k = 2 or 3), so the
// cardinality is static even though the parts are data-dependent.
func (g *gen) splitSum() (*muscle.Muscle, int) {
	k := 2 + g.rng.Intn(2)
	m := g.reg(muscle.NewSplit(fmt.Sprintf("split%d", k), func(p any) ([]any, error) {
		n := p.(int)
		out := make([]any, k)
		rest := n
		for i := 0; i < k-1; i++ {
			part := rest / (k - i)
			out[i] = part
			rest -= part
		}
		out[k-1] = rest
		return out, nil
	}))
	g.cards[m.ID()] = float64(k)
	return m, k
}

func (g *gen) mergeSum() *muscle.Muscle {
	return g.reg(muscle.NewMerge("sum", func(ps []any) (any, error) {
		s := 0
		for _, p := range ps {
			s += p.(int)
		}
		return s, nil
	}))
}

// full produces a random skeleton over the whole algebra; every subtree
// maps n -> >= n.
func (g *gen) full(depth int) *skel.Node {
	if depth <= 0 {
		return g.exec()
	}
	switch g.rng.Intn(9) {
	case 0:
		return g.exec()
	case 1:
		return skel.NewFarm(g.full(depth - 1))
	case 2:
		return skel.NewPipe(g.full(depth-1), g.full(depth-1))
	case 3:
		return skel.NewFor(1+g.rng.Intn(3), g.full(depth-1))
	case 4:
		bound := 20 + g.rng.Intn(100)
		fc := g.reg(muscle.NewCondition(fmt.Sprintf("lt%d", bound), func(p any) (bool, error) {
			return p.(int) < bound, nil
		}))
		inc := skel.NewSeq(g.reg(muscle.NewExecute("inc", func(p any) (any, error) {
			return p.(int) + 1, nil
		})))
		return skel.NewWhile(fc, skel.NewPipe(inc, g.full(depth-1)))
	case 5:
		threshold := g.rng.Intn(10)
		fc := g.reg(muscle.NewCondition(fmt.Sprintf("gt%d", threshold), func(p any) (bool, error) {
			return p.(int) > threshold, nil
		}))
		return skel.NewIf(fc, g.full(depth-1), g.full(depth-1))
	case 6:
		fs, _ := g.splitSum()
		return skel.NewMap(fs, g.full(depth-1), g.mergeSum())
	case 7:
		fs, k := g.splitSum()
		subs := make([]*skel.Node, k)
		for i := range subs {
			subs[i] = g.full(depth - 1)
		}
		return skel.NewFork(fs, subs, g.mergeSum())
	default:
		threshold := 4 + g.rng.Intn(20)
		fc := g.reg(muscle.NewCondition(fmt.Sprintf("big%d", threshold), func(p any) (bool, error) {
			return p.(int) > threshold, nil
		}))
		fs := g.reg(muscle.NewSplit("halve", func(p any) ([]any, error) {
			n := p.(int)
			return []any{n / 2, n - n/2}, nil
		}))
		g.cards[fs.ID()] = 2
		return skel.NewDaC(fc, fs, g.full(depth-1), g.mergeSum())
	}
}

// static produces a random skeleton from the analytic subclass: no
// data-dependent control flow (no while/if/d&c) and only fixed-cardinality
// splits. For such trees the closed-form work and span estimators are
// exact, so the harness can compare them against simulated makespans
// without tolerance.
func (g *gen) static(depth int) *skel.Node {
	if depth <= 0 {
		return g.exec()
	}
	switch g.rng.Intn(6) {
	case 0:
		return g.exec()
	case 1:
		return skel.NewFarm(g.static(depth - 1))
	case 2:
		return skel.NewPipe(g.static(depth-1), g.static(depth-1))
	case 3:
		return skel.NewFor(1+g.rng.Intn(3), g.static(depth-1))
	case 4:
		fs, _ := g.splitSum()
		return skel.NewMap(fs, g.static(depth-1), g.mergeSum())
	default:
		fs, k := g.splitSum()
		subs := make([]*skel.Node, k)
		for i := range subs {
			subs[i] = g.static(depth - 1)
		}
		return skel.NewFork(fs, subs, g.mergeSum())
	}
}

func (g *gen) tree(node *skel.Node) *Tree {
	return &Tree{
		Node:    node,
		Input:   g.rng.Intn(50),
		Muscles: g.muscles,
		Cards:   g.cards,
	}
}

// Generate builds a seeded random tree over the full skeleton algebra.
func Generate(seed int64, depth int) *Tree {
	g := newGen(seed)
	return g.tree(g.full(depth))
}

// GenerateStatic builds a seeded random tree from the analytic subclass
// (fixed structure, fixed-cardinality splits).
func GenerateStatic(seed int64, depth int) *Tree {
	g := newGen(seed)
	return g.tree(g.static(depth))
}
