package adg

import (
	"testing"
	"testing/quick"

	"math/rand"

	"skandium/internal/clock"
	"skandium/internal/estimate"
	"skandium/internal/skel"
)

func TestSpanEstimateAllKinds(t *testing.T) {
	est := estimate.NewRegistry(estimate.DefaultRho)
	fe, fs, fm, fc := mkMuscles(est, u(10), u(2), u(3), u(1), 2)
	leaf := skel.NewSeq(fe)
	cases := []struct {
		nd   *skel.Node
		want int // ms
	}{
		{leaf, 10},
		{skel.NewFarm(leaf), 10},
		{skel.NewPipe(leaf, leaf), 20},
		{skel.NewFor(3, leaf), 30},
		{skel.NewWhile(fc, leaf), 23},                        // loops are sequential
		{skel.NewIf(fc, leaf, skel.NewFor(2, leaf)), 21},     // worst branch
		{skel.NewMap(fs, leaf, fm), 15},                      // 2 + 10 + 3, bodies parallel
		{skel.NewFork(fs, []*skel.Node{leaf, leaf}, fm), 15}, // widest branch
		// d&c depth 2: (1+2) + (1+2) + (1+10) + 3 + 3 = 23.
		{skel.NewDaC(fc, fs, leaf, fm), 23},
	}
	for _, tc := range cases {
		got, err := SpanEstimate(est, tc.nd)
		if err != nil {
			t.Errorf("%s: %v", tc.nd, err)
			continue
		}
		if got != u(tc.want) {
			t.Errorf("%s: span = %v, want %dms", tc.nd, got, tc.want)
		}
	}
}

// Property: span <= work, and span equals the best-effort WCT of the
// virtual ADG (the critical path).
func TestSpanMatchesBestEffortProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		est := estimate.NewRegistry(estimate.DefaultRho)
		nd := randomProgram(rng, est, 2)
		span, err := SpanEstimate(est, nd)
		if err != nil {
			return false
		}
		work, err := SeqEstimate(est, nd)
		if err != nil {
			return false
		}
		if span > work {
			t.Logf("seed %d (%s): span %v > work %v", seed, nd, span, work)
			return false
		}
		g, err := Builder{Est: est, Budget: 3000}.BuildVirtual(nd, clock.Epoch)
		if err != nil {
			return false
		}
		g.ScheduleBestEffort()
		if g.WCT() != span {
			t.Logf("seed %d (%s): best effort %v != span %v", seed, nd, g.WCT(), span)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
