// Package rng provides deterministic, splittable pseudo-random number
// generation for reproducible simulation experiments.
//
// The package intentionally avoids math/rand so that every experiment in
// this repository is bit-reproducible across Go releases: the stream
// produced by a given seed is fixed by this package alone. The core
// generator is xoshiro256**, seeded through SplitMix64 as its authors
// recommend. Independent streams for parallel work are derived with Split,
// which uses SplitMix64 to produce well-separated child seeds.
package rng

import (
	"math"
	"math/bits"
	"sync"
)

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used for seeding and for deriving independent child generators.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a deterministic pseudo-random source implementing xoshiro256**.
// The zero value is not usable; construct with New or Split.
type Rand struct {
	s [4]uint64
	// cached spare normal variate for NormFloat64 (Marsaglia polar method)
	spare    float64
	hasSpare bool
}

// New returns a generator seeded from the given seed. Distinct seeds yield
// streams that are, for all practical purposes, independent.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitMix64(&sm)
	}
	// xoshiro256** must not be seeded with the all-zero state. SplitMix64
	// cannot produce four consecutive zeros, so this is already guaranteed,
	// but keep an explicit guard for clarity and safety.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Split returns a new generator whose stream is independent of the parent's
// future output. It consumes one value from the parent, so repeated Split
// calls yield distinct children. Use it to hand separate streams to worker
// goroutines while keeping the overall experiment deterministic.
func (r *Rand) Split() *Rand {
	return New(r.Uint64())
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform float64 in the half-open interval [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
// The implementation uses Lemire's multiply-shift rejection method,
// which is unbiased for every n.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n). It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	threshold := (-n) % n
	for {
		hi, lo := bits.Mul64(r.Uint64(), n)
		if lo >= threshold {
			return hi
		}
	}
}

// NormFloat64 returns a standard normal variate using the Marsaglia polar
// method, caching the second variate of each pair.
func (r *Rand) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * f
		r.hasSpare = true
		return u * f
	}
}

// Normal returns a normal variate with the given mean and standard
// deviation. It panics if sigma is negative.
func (r *Rand) Normal(mu, sigma float64) float64 {
	if sigma < 0 {
		panic("rng: Normal called with negative sigma")
	}
	return mu + sigma*r.NormFloat64()
}

// ExpFloat64 returns an exponentially distributed variate with rate 1,
// via inversion.
func (r *Rand) ExpFloat64() float64 {
	return -math.Log(1 - r.Float64())
}

// SampleWithoutReplacement returns k distinct indices drawn uniformly from
// [0, n). It panics if k > n or either argument is negative. The returned
// order is random. It allocates only the result slice; callers that own a
// buffer should use SampleWithoutReplacementInto.
func (r *Rand) SampleWithoutReplacement(n, k int) []int {
	if k < 0 {
		panic("rng: negative argument to SampleWithoutReplacement")
	}
	out := make([]int, k)
	r.SampleWithoutReplacementInto(n, out)
	return out
}

// smallSampleCutoff bounds the duplicate linear scan in the sparse
// rejection path: up to this many draws the scan stays cheaper and more
// cache-friendly than maintaining a bitset.
const smallSampleCutoff = 128

// bitsetPool recycles the word slices behind the mid-size rejection
// path, so steady-state sampling performs no heap allocation. It holds
// *[]uint64 so that Put does not box a slice header on every call.
var bitsetPool = sync.Pool{New: func() any { return new([]uint64) }}

// SampleWithoutReplacementInto fills dst with len(dst) distinct indices
// drawn uniformly from [0, n), in random order. It panics if n is
// negative or len(dst) > n.
//
// For sparse draws (k·8 < n) it uses rejection with a duplicate linear
// scan over dst for small k and a pooled bitset otherwise — both paths
// allocation-free in steady state, replacing the per-call map the sparse
// path once built. Dense draws fall back to a partial Fisher-Yates over
// a scratch permutation, which allocates O(n) and is the right tool only
// when most of the population is sampled anyway.
func (r *Rand) SampleWithoutReplacementInto(n int, dst []int) {
	k := len(dst)
	if n < 0 {
		panic("rng: negative argument to SampleWithoutReplacement")
	}
	if k > n {
		panic("rng: sample size exceeds population in SampleWithoutReplacement")
	}
	if k == 0 {
		return
	}
	switch {
	case k*8 >= n:
		p := make([]int, n)
		for i := range p {
			p[i] = i
		}
		for i := 0; i < k; i++ {
			j := i + r.Intn(n-i)
			p[i], p[j] = p[j], p[i]
		}
		copy(dst, p[:k])
	case k <= smallSampleCutoff:
		for i := 0; i < k; {
			v := r.Intn(n)
			dup := false
			for _, prev := range dst[:i] {
				if prev == v {
					dup = true
					break
				}
			}
			if !dup {
				dst[i] = v
				i++
			}
		}
	default:
		wp := bitsetPool.Get().(*[]uint64)
		need := (n + 63) / 64
		if cap(*wp) < need {
			*wp = make([]uint64, need)
		}
		words := (*wp)[:need]
		for i := range words {
			words[i] = 0
		}
		for i := 0; i < k; {
			v := r.Intn(n)
			w, bit := v>>6, uint64(1)<<(uint(v)&63)
			if words[w]&bit == 0 {
				words[w] |= bit
				dst[i] = v
				i++
			}
		}
		bitsetPool.Put(wp)
	}
}

// Bernoulli returns true with the given probability p (clamped to [0, 1]).
func (r *Rand) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}
