package rng

import (
	"math"
	"math/bits"
)

// The Binomial sampler is the reference the tests check the dispatch
// between inversion, BTRS and popcount against; the pipeline draws its
// binomials inside MultinomialEqual.

// Binomial returns a variate with the Binomial(n, p) distribution: the
// number of successes in n independent trials of probability p. It
// panics if n is negative or p is NaN; p is clamped to [0, 1].
//
// For n·min(p,1-p) below a small cutoff it uses inversion (BINV: walk
// the CDF from zero, O(n·p) expected steps); above it, Hörmann's BTRS
// transformed-rejection sampler with an O(1) expected number of
// uniforms. The split keeps every call allocation-free and cheap at
// both extremes.
func (r *Rand) Binomial(n int, p float64) int {
	if n < 0 {
		panic("rng: Binomial called with negative n")
	}
	if math.IsNaN(p) {
		panic("rng: Binomial called with NaN p")
	}
	if n == 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	// Work on q = min(p, 1-p) and flip the result back: both samplers
	// want the success probability in (0, 1/2].
	flipped := p > 0.5
	q := p
	if flipped {
		q = 1 - p
	}
	var k int
	if q == 0.5 {
		k = r.binomialHalf(n)
	} else {
		k = r.binomialBelowHalf(n, q)
	}
	if flipped {
		k = n - k
	}
	return k
}

// binomialHalf returns a Binomial(n, 1/2) variate as the popcount of n
// fair random bits: exact, transcendental-free, and ~64 trials per
// generator word, deferring to BTRS for very large n. It is the
// workhorse of the split tree in MultinomialEqual, where every split of
// a power-of-two segment is a fair coin.
func (r *Rand) binomialHalf(n int) int {
	if n > popcountCutoff {
		return r.binomialBTRS(n, 0.5)
	}
	k := 0
	for ; n >= 64; n -= 64 {
		k += bits.OnesCount64(r.Uint64())
	}
	if n > 0 {
		k += bits.OnesCount64(r.Uint64() & (1<<uint(n) - 1))
	}
	return k
}
