package conformance

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"skandium/internal/clock"
	"skandium/internal/exec"
	"skandium/internal/muscle"
	"skandium/internal/sim"
	"skandium/internal/skel"
)

// --- generator of random, terminating int programs --------------------------------
//
// Every generated muscle maps non-negative ints to non-negative ints and is
// non-decreasing (f(n) >= n), which makes while loops with a leading +1
// stage strictly increasing (termination) and keeps d&c recursion on
// halvings well-founded.

type progGen struct {
	rng *rand.Rand
}

func (g *progGen) exec() *skel.Node {
	switch g.rng.Intn(3) {
	case 0:
		k := g.rng.Intn(5)
		return skel.NewSeq(muscle.NewExecute(fmt.Sprintf("add%d", k), func(p any) (any, error) {
			return p.(int) + k, nil
		}))
	case 1:
		return skel.NewSeq(muscle.NewExecute("double", func(p any) (any, error) {
			return p.(int) * 2, nil
		}))
	default:
		return skel.NewSeq(muscle.NewExecute("id", func(p any) (any, error) {
			return p, nil
		}))
	}
}

// splitSum splits n into parts that sum to n (2 or 3 parts).
func (g *progGen) splitSum() *muscle.Muscle {
	k := 2 + g.rng.Intn(2)
	return muscle.NewSplit(fmt.Sprintf("split%d", k), func(p any) ([]any, error) {
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
	})
}

func mergeSum() *muscle.Muscle {
	return muscle.NewMerge("sum", func(ps []any) (any, error) {
		s := 0
		for _, p := range ps {
			s += p.(int)
		}
		return s, nil
	})
}

// gen produces a random skeleton; every subtree maps n -> >= n.
func (g *progGen) gen(depth int) *skel.Node {
	if depth <= 0 {
		return g.exec()
	}
	switch g.rng.Intn(8) {
	case 0:
		return g.exec()
	case 1:
		return skel.NewFarm(g.gen(depth - 1))
	case 2:
		return skel.NewPipe(g.gen(depth-1), g.gen(depth-1))
	case 3:
		return skel.NewFor(1+g.rng.Intn(3), g.gen(depth-1))
	case 4:
		bound := 20 + g.rng.Intn(100)
		fc := muscle.NewCondition(fmt.Sprintf("lt%d", bound), func(p any) (bool, error) {
			return p.(int) < bound, nil
		})
		inc := skel.NewSeq(muscle.NewExecute("inc", func(p any) (any, error) {
			return p.(int) + 1, nil
		}))
		return skel.NewWhile(fc, skel.NewPipe(inc, g.gen(depth-1)))
	case 5:
		threshold := g.rng.Intn(10)
		fc := muscle.NewCondition(fmt.Sprintf("gt%d", threshold), func(p any) (bool, error) {
			return p.(int) > threshold, nil
		})
		return skel.NewIf(fc, g.gen(depth-1), g.gen(depth-1))
	case 6:
		return skel.NewMap(g.splitSum(), g.gen(depth-1), mergeSum())
	default:
		threshold := 4 + g.rng.Intn(20)
		fc := muscle.NewCondition(fmt.Sprintf("big%d", threshold), func(p any) (bool, error) {
			return p.(int) > threshold, nil
		})
		fs := muscle.NewSplit("halve", func(p any) ([]any, error) {
			n := p.(int)
			return []any{n / 2, n - n/2}, nil
		})
		return skel.NewDaC(fc, fs, g.gen(depth-1), mergeSum())
	}
}

// TestEngineMatchesReference: the task-pool engine at several LPs computes
// exactly the reference result for random programs and inputs.
func TestEngineMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		g := &progGen{rng: rand.New(rand.NewSource(seed))}
		prog := g.gen(3)
		input := g.rng.Intn(50)
		want, err := refEval(prog, input)
		if err != nil {
			t.Fatalf("seed %d (%s): reference: %v", seed, prog, err)
		}
		for _, lp := range []int{1, 2, 4} {
			pool := exec.NewPool(clock.System, lp, 0)
			root := exec.NewRoot(pool, nil, nil)
			got, err := root.Start(prog, input).Get()
			pool.Close()
			if err != nil {
				t.Fatalf("seed %d lp %d (%s): engine: %v", seed, lp, prog, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d lp %d (%s) input %d: engine %v != reference %v",
					seed, lp, prog, input, got, want)
			}
		}
	}
}

// TestSimMatchesReference: the simulator substrate computes the reference
// result too.
func TestSimMatchesReference(t *testing.T) {
	for seed := int64(100); seed < 130; seed++ {
		g := &progGen{rng: rand.New(rand.NewSource(seed))}
		prog := g.gen(3)
		input := g.rng.Intn(50)
		want, err := refEval(prog, input)
		if err != nil {
			t.Fatalf("seed %d (%s): reference: %v", seed, prog, err)
		}
		for _, lp := range []int{1, 3} {
			eng := sim.NewEngine(sim.Config{Costs: unitCosts(), LP: lp})
			got, _, err := eng.Run(prog, input)
			if err != nil {
				t.Fatalf("seed %d lp %d (%s): sim: %v", seed, lp, prog, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d lp %d (%s) input %d: sim %v != reference %v",
					seed, lp, prog, input, got, want)
			}
		}
	}
}

// TestSimLPMakespanMonotone: on random programs, more simulated threads
// never lengthen the virtual makespan (the paper's assumed "non-strictly
// increasing speedup"), within the tolerance of LIFO scheduling order.
func TestSimLPMakespanMonotone(t *testing.T) {
	for seed := int64(200); seed < 220; seed++ {
		g := &progGen{rng: rand.New(rand.NewSource(seed))}
		prog := g.gen(2)
		input := g.rng.Intn(30)
		var prev time.Duration = -1
		lp1 := time.Duration(0)
		for _, lp := range []int{1, 2, 4, 8, 16} {
			eng := sim.NewEngine(sim.Config{Costs: unitCosts(), LP: lp})
			_, makespan, err := eng.Run(prog, input)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if lp == 1 {
				lp1 = makespan
			}
			// Greedy LIFO scheduling is not perfectly monotone in theory;
			// unit costs make it monotone in practice. Tolerate nothing.
			if prev >= 0 && makespan > prev {
				t.Fatalf("seed %d (%s): makespan grew from %v to %v at lp %d",
					seed, prog, prev, makespan, lp)
			}
			prev = makespan
		}
		if prev > lp1 {
			t.Fatalf("seed %d: lp16 %v worse than lp1 %v", seed, prev, lp1)
		}
	}
}

// TestReferenceEvaluatorBasics pins the oracle itself.
func TestReferenceEvaluatorBasics(t *testing.T) {
	double := muscle.NewExecute("double", func(p any) (any, error) { return p.(int) * 2, nil })
	nd := skel.NewFor(3, skel.NewSeq(double))
	got, err := refEval(nd, 1)
	if err != nil || got != 8 {
		t.Fatalf("got %v/%v", got, err)
	}
}

// TestReferenceWhileGuard: a non-terminating while is reported, not hung.
func TestReferenceWhileGuard(t *testing.T) {
	always := muscle.NewCondition("true", func(p any) (bool, error) { return true, nil })
	id := muscle.NewExecute("id", func(p any) (any, error) { return p, nil })
	nd := skel.NewWhile(always, skel.NewSeq(id))
	if _, err := refEval(nd, 0); err == nil {
		t.Fatal("infinite while not caught")
	}
}
