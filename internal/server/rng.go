package server

import "math/rand"

// rngSource is math/rand's additive lagged-Fibonacci source (Mitchell and
// Reeds; x[n] = x[n-607] + x[n-273] mod 2⁶⁴), reproduced so the montecarlo
// muscle can keep it on its stack and seed it cheaply. Every output equals
// rand.NewSource's for the same seed: a batch's hit count is the same on
// every node and in every version of the daemon.
//
// The stdlib's Seed walks a serial chain of 1841 Schrage divisions. Step n
// of that chain is A^n·x₀ mod (2³¹−1), so Seed here cuts the 1821 steps
// that make the state into eight chains, one per block of words, and walks
// them side by side: each starts with one product of the seed and a
// precomputed power of A, then steps by A with one Mersenne fold and no
// division. Eight independent chains keep the multiplier busy where one
// would wait on each product.
type rngSource struct {
	tap  int
	feed int
	vec  [rngLen]int64
}

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	seedA    = 48271 // the multiplier of math/rand's seedrand

	// seedChains is the number of chains Seed walks side by side; chain c
	// makes the words [c·chainLen, (c+1)·chainLen), and the last one is
	// a word short.
	seedChains = 8
	chainLen   = (rngLen + seedChains - 1) / seedChains
)

var (
	// chainStart[c] is A^n mod (2³¹−1) for the first step n of chain c:
	// Seed discards 20 steps, then spends 3 a word.
	chainStart [seedChains]uint64
	// rngCooked is the table Seed XORs into the chain. It is not copied
	// from the stdlib but recovered from rand.NewSource(1)'s first outputs
	// (cookedTable), so the stdlib stays the one source of truth.
	rngCooked [rngLen]int64
)

func init() {
	p := uint64(1)
	for n := 1; n <= 21+3*chainLen*(seedChains-1); n++ {
		p = mulmod(p, seedA)
		if n >= 21 && (n-21)%(3*chainLen) == 0 {
			chainStart[(n-21)/(3*chainLen)] = p
		}
	}
	rngCooked = cookedTable()
}

// mulmod returns a·b mod (2³¹−1) for a, b < 2³¹.
func mulmod(a, b uint64) uint64 {
	z := a * b
	z = z&int32max + z>>31
	z = z&int32max + z>>31
	if z >= int32max {
		z -= int32max
	}
	return z
}

// cookedTable recovers the stdlib's cooked table. Seeded, the source's
// state is vec[i] = chain(1)[i] ^ cooked[i]. Output k (0-based) writes
// vec[333−k] as vec[333−k] + vec[606−k], wrapping at 607: from k = 273 on
// the second term is output k−273, so the differences give vec[0…60] and
// vec[334…606]; before that both terms are original, so they give
// vec[61…333].
func cookedTable() [rngLen]int64 {
	src := rand.NewSource(1).(rand.Source64)
	var out, vec [rngLen]int64
	for k := range out {
		out[k] = int64(src.Uint64())
	}
	for k := rngTap; k < rngLen; k++ {
		vec[(rngLen-rngTap-1-k+rngLen)%rngLen] = out[k] - out[k-rngTap]
	}
	for k := 0; k < rngTap; k++ {
		vec[rngLen-rngTap-1-k] = out[k] - vec[rngLen-1-k]
	}
	var chain rngSource
	chain.Seed(1) // with rngCooked still zero: the bare chain
	for i := range vec {
		vec[i] ^= chain.vec[i]
	}
	return vec
}

// Seed sets the state rand.NewSource(seed) starts from.
func (rng *rngSource) Seed(seed int64) {
	rng.tap = 0
	rng.feed = rngLen - rngTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	var x [seedChains]uint64
	for c := range x {
		x[c] = mulmod(uint64(seed), chainStart[c])
	}
	for i := 0; i < chainLen; i++ {
		for c := range x {
			w := c*chainLen + i
			if w == rngLen {
				break // the last chain's missing word
			}
			y := x[c]
			u := int64(y) << 40
			y = stepA(y)
			u ^= int64(y) << 20
			y = stepA(y)
			rng.vec[w] = u ^ int64(y) ^ rngCooked[w]
			x[c] = stepA(y)
		}
	}
}

// stepA returns A·x mod (2³¹−1) for x < 2³¹−1. The product is under 2⁴⁷, so
// one fold leaves it under 2³¹+2¹⁶ and one subtraction finishes.
func stepA(x uint64) uint64 {
	z := x * seedA
	z = z&int32max + z>>31
	if z >= int32max {
		z -= int32max
	}
	return z
}

// Uint64 returns the next 64-bit output.
func (rng *rngSource) Uint64() uint64 {
	rng.tap--
	if rng.tap < 0 {
		rng.tap += rngLen
	}
	rng.feed--
	if rng.feed < 0 {
		rng.feed += rngLen
	}
	x := rng.vec[rng.feed] + rng.vec[rng.tap]
	rng.vec[rng.feed] = x
	return uint64(x)
}

// Int63 returns the next output's low 63 bits, as rand.Source's Int63.
func (rng *rngSource) Int63() int64 { return int64(rng.Uint64() & rngMask) }

// Float64 returns a value in [0, 1), as rand.Rand's Float64: Int63/2⁶³,
// resampled in the rare case that it rounds up to 1.
func (rng *rngSource) Float64() float64 {
	for {
		if f := float64(rng.Int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}
