package server

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"skandium"
)

// sameStream checks that rngSource seeded with seed yields the stdlib's
// first draws: Float64 as rand.Rand computes it, and Uint64 in full, since
// Int63 (and so Float64) never sees the state's top bit.
func sameStream(t *testing.T, seed int64, draws int) {
	t.Helper()
	var f, u rngSource
	f.Seed(seed)
	u.Seed(seed)
	want := rand.New(rand.NewSource(seed))
	want64 := rand.NewSource(seed).(rand.Source64)
	for i := 0; i < draws; i++ {
		if got, w := f.Float64(), want.Float64(); got != w {
			t.Fatalf("seed %d: Float64 draw %d = %v, want %v", seed, i, got, w)
		}
		if got, w := u.Uint64(), want64.Uint64(); got != w {
			t.Fatalf("seed %d: Uint64 draw %d = %#x, want %#x", seed, i, got, w)
		}
	}
}

// TestRNGSourceMatchesStdlib: for every seed class Seed normalises — zero
// (replaced by 89482311), negatives, multiples of 2³¹−1, the int64 extremes
// — and 3000 ordinary seeds, the first 2000 draws equal math/rand's.
func TestRNGSourceMatchesStdlib(t *testing.T) {
	seeds := []int64{0, -1, 89482311, int32max, int32max + 5, -int32max, math.MinInt64, math.MaxInt64}
	for s := int64(1); s <= 3000; s++ {
		seeds = append(seeds, s)
	}
	for _, seed := range seeds {
		sameStream(t, seed, 2000)
	}
}

// FuzzMontecarloSource: any seed, any number of draws, the stdlib's stream.
func FuzzMontecarloSource(f *testing.F) {
	for _, s := range []int64{0, 1, -1, int32max, math.MinInt64, math.MaxInt64} {
		f.Add(s, uint16(700))
	}
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		sameStream(t, seed, int(draws))
	})
}

// stdlibHits recomputes the montecarlo blueprint's result with math/rand,
// as bench/'s oracle does: batch i draws samples/batches points from a
// source seeded with i+1.
func stdlibHits(samples, batches int) int {
	hits := 0
	for i := 0; i < batches; i++ {
		rng := rand.New(rand.NewSource(int64(i + 1)))
		for k := 0; k < samples/batches; k++ {
			x, y := rng.Float64(), rng.Float64()
			if x*x+y*y <= 1 {
				hits++
			}
		}
	}
	return hits
}

// TestMontecarloMatchesStdlib: a montecarlo job submitted to the daemon
// returns the hit count math/rand gives, also when the batches do not
// divide the samples evenly.
func TestMontecarloMatchesStdlib(t *testing.T) {
	srv := New(Config{Budget: 4})
	defer srv.Close()
	for _, shape := range [][2]int{{4000, 4}, {105000, 500}, {10007, 13}} {
		j, err := srv.Submit(SubmitSpec{
			Skeleton: "montecarlo",
			Params:   skandium.Params{"samples": shape[0], "batches": shape[1]},
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := waitJobDone(t, j)
		if err != nil {
			t.Fatal(err)
		}
		if want := stdlibHits(shape[0], shape[1]); res != fmt.Sprint(want) {
			t.Fatalf("samples=%d batches=%d: %v hits, want %d", shape[0], shape[1], res, want)
		}
	}
}

// TestMontecarloRemoteMatchesStdlib: batches shipped to cluster workers
// count the same hits, as the blueprint's Remote comment promises.
func TestMontecarloRemoteMatchesStdlib(t *testing.T) {
	srv, _, _ := newTestClusterDaemon(t, 2)
	j, err := srv.Submit(SubmitSpec{
		Skeleton: "montecarlo",
		Params:   skandium.Params{"samples": 20000, "batches": 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := waitJobDone(t, j)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jobEvents(j), "cluster@route") {
		t.Fatal("the job did not route to the cluster")
	}
	if want := stdlibHits(20000, 16); res != fmt.Sprint(want) {
		t.Fatalf("%v hits, want %d", res, want)
	}
}

var batchSink int

// BenchmarkMontecarloBatch: one fanout_fine-sized batch (200 samples)
// through the montecarlo muscle, seeding included. It allocates nothing.
func BenchmarkMontecarloBatch(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		batchSink += montecarloBatch(int64(i%500+1), 200)
	}
}
