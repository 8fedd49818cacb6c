package rng

import (
	"math"
	"math/bits"
	"sync"
)

// This file holds the discrete-distribution kernels behind the
// count-based bootstrap: an exact binomial sampler and the
// split-tree multinomial draw built on it. The design constraint
// throughout is O(1) expected work per variate with zero heap
// allocation, so that a coverage-study replicate costs O(pilot)
// regardless of the simulated machine size.

// lgamma is math.Lgamma without the sign return, for log-pmf arithmetic.
func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// logFactCap bounds the log-factorial table: BTRS populations below it
// read log(i!) from the table, larger ones call lgamma. It covers every
// machine the repository models (the largest, LRZ, has 9216 nodes) for
// 128 KiB.
const logFactCap = 1 << 14

// logFactTable returns the table t[i] = lgamma(i+1) for
// 0 <= i < logFactCap, built on first use. Entries come from the same
// lgamma the fallback path calls, so a table read and a direct call
// agree bit for bit.
var logFactTable = sync.OnceValue(func() []float64 {
	t := make([]float64, logFactCap)
	for i := range t {
		t[i] = lgamma(float64(i) + 1)
	}
	return t
})

// btrsCutoff splits Binomial between plain inversion and the BTRS
// transformed-rejection sampler: below it the inversion walk is short
// (expected n·p steps), above it BTRS accepts in O(1) expected trials
// and is valid (it requires n·min(p,1-p) ≳ 10).
const btrsCutoff = 10

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

// popcountCutoff is where Binomial(n, 1/2) switches from popcount
// (n/64 generator words) to BTRS (two uniforms expected): past ~2k
// trials the rejection sampler is cheaper than streaming the bits.
const popcountCutoff = 2048

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

// binomialBelowHalf dispatches Binomial(n, p) for 0 < p < 1/2 between
// inversion and BTRS.
func (r *Rand) binomialBelowHalf(n int, p float64) int {
	if float64(n)*p < btrsCutoff {
		return r.binomialInv(n, p)
	}
	return r.binomialBTRS(n, p)
}

// binomialInv is CDF inversion from zero (BINV): one uniform, then a
// multiplicative pmf recurrence. Requires 0 < p <= 1/2 and n·p small
// enough that (1-p)^n does not underflow (guaranteed by btrsCutoff).
func (r *Rand) binomialInv(n int, p float64) int {
	s := p / (1 - p)
	// pmf(0) = (1-p)^n, computed in log space for accuracy.
	f := math.Exp(float64(n) * math.Log1p(-p))
	u := r.Float64()
	k := 0
	for u > f && k < n {
		u -= f
		k++
		f *= s * float64(n-k+1) / float64(k)
	}
	return k
}

// binomialBTRS is Hörmann's BTRS sampler (transformed rejection with
// squeeze, 1993). Requires 0 < p <= 1/2 and n·p >= 10.
func (r *Rand) binomialBTRS(n int, p float64) int {
	fn := float64(n)
	q := 1 - p
	spq := math.Sqrt(fn * p * q)
	b := 1.15 + 2.53*spq
	a := -0.0873 + 0.0248*b + 0.01*p
	c := fn*p + 0.5
	vr := 0.92 - 4.2/b
	// The transcendental-heavy constants are deferred until a candidate
	// actually fails the squeeze: the majority of calls accept inside
	// it, and in the multinomial decomposition every call has fresh
	// (n, p) so nothing amortizes across calls. The log-factorials are
	// table reads below logFactCap (lf stays nil above it), and only
	// integer arguments ever reach them: k and m are whole numbers in
	// [0, n], so fn-k is exactly n-int(k).
	var alpha, lpq, m, h float64
	var lf []float64
	ready := false
	for {
		u := r.Float64() - 0.5
		v := r.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + c)
		// Squeeze: deep inside the dominating region the candidate is
		// accepted without evaluating the pmf.
		if us >= 0.07 && v <= vr {
			return int(k)
		}
		if k < 0 || k > fn {
			continue
		}
		if !ready {
			alpha = (2.83 + 5.1/b) * spq
			lpq = math.Log(p / q)
			m = math.Floor((fn + 1) * p)
			if n < logFactCap {
				lf = logFactTable()
				h = lf[int(m)] + lf[n-int(m)]
			} else {
				h = lgamma(m+1) + lgamma(fn-m+1)
			}
			ready = true
		}
		var lk, lnk float64
		if lf != nil {
			lk, lnk = lf[int(k)], lf[n-int(k)]
		} else {
			lk, lnk = lgamma(k+1), lgamma(fn-k+1)
		}
		v = math.Log(v * alpha / (a/(us*us) + b))
		if v <= h-lk-lnk+(k-m)*lpq {
			return int(k)
		}
	}
}

// MultinomialEqual draws counts from the equal-probability
// Multinomial(n; 1/k, ..., 1/k) distribution into counts, which must
// have length k >= 1: counts[i] is how many of n category draws landed
// in category i, with every category equally likely. This is exactly the
// category histogram of n iid uniform draws over k values — a bootstrap
// resample in count form — without materializing the n draws.
//
// The decomposition is a binary split tree. A segment of k cells whose
// size is not a power of two splits at l = 2^⌊log₂k⌋: its k−l
// right-hand cells take Binomial(n, (k−l)/k) of its n draws, with
// (k−l)/k < 1/2, and split further under the same rule. A power-of-two
// segment, such as the l left-hand cells, halves, and each halving is a
// fair coin served by the popcount sampler at ~64 trials per generator
// word. A draw therefore makes popcount(k)−1 biased splits; every other
// split is fair. Two kinds of segment are finished without splitting:
// one with fewer draws than cells takes each draw's cell directly, and
// a power-of-two segment of at most leafCells cells reads each draw's
// cell from the bits of log₂k generator words (see multinomialHalve).
// Total cost is O(k + n·log(k)/64) word-level work and zero allocations
// — the conditional-binomial chain in cell order would instead pay the
// general sampler's setup for every cell.
func (r *Rand) MultinomialEqual(n int, counts []int) {
	if n < 0 {
		panic("rng: MultinomialEqual called with negative n")
	}
	if len(counts) == 0 {
		panic("rng: MultinomialEqual needs at least one category")
	}
	r.multinomialHalve(n, counts)
}

// leafCells is the largest power-of-two segment that multinomialHalve
// finishes in one bit-sliced pass instead of splitting it. On the LRZ
// shape (516 cells, 9196 draws) 8 was fastest: in 18 alternating rounds
// a 4-cell leaf read 1.12× its time and a 16-cell leaf 1.07× (its 15
// AND/popcount pairs and counters per block outweigh the split level
// it saves).
const leafCells = 8

// xoshiro is one xoshiro256** step on a state held in the caller's
// locals: it returns the output word and the next state. Small enough
// to inline, so the kernels below keep the state in registers.
func xoshiro(s0, s1, s2, s3 uint64) (w, n0, n1, n2, n3 uint64) {
	w = rotl(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	return w, s0, s1, s2, rotl(s3, 45)
}

// multinomialHalve walks the split tree iteratively — depth-first,
// always descending into the left (power-of-two) part and stacking the
// right — with the generator state held in locals and the word-level
// steps inlined. A segment ends the descent in one of three ways:
//
//   - k = 1: the cell takes every draw.
//   - n < k (sparse): the cells are zeroed and each draw picks its cell
//     by Lemire's multiply-shift with Intn's exact rejection, so the
//     stream is that of n Intn(k) calls. n picks cost less than the
//     ~2k-node subtree the splits would walk.
//   - a power-of-two k <= leafCells with n <= popcountCutoff (leaf):
//     bit-sliced. Draws go in blocks of 64; a block reads log₂k words,
//     and draw j's cell is the number whose binary digits are bit j of
//     those words. The bits are iid fair coins, so every draw is an
//     independent uniform pick over the k cells, and each count is the
//     popcount of the AND/AND-NOT combination of the masked words that
//     selects its cell. This replaces the segment's k−1 fair splits and
//     their stack traffic with straight-line code.
//
// Either way the segment's counts are exactly Multinomial(n; 1/k, ...).
func (r *Rand) multinomialHalve(n int, counts []int) {
	type seg struct{ n, lo, hi int }
	// Depth of the stack is the tree depth, ceil(log2(k))+1 <= 64 for
	// any in-memory slice length.
	var stack [64]seg
	sp := 0
	cur := seg{n, 0, len(counts)}
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for {
		k := cur.hi - cur.lo
		c := counts[cur.lo:cur.hi]
		switch {
		case cur.n < k:
			clear(c)
			kk := uint64(k)
			threshold := -kk % kk
			for j := 0; j < cur.n; j++ {
				var w uint64
				w, s0, s1, s2, s3 = xoshiro(s0, s1, s2, s3)
				hi, lo := bits.Mul64(w, kk)
				for lo < threshold {
					w, s0, s1, s2, s3 = xoshiro(s0, s1, s2, s3)
					hi, lo = bits.Mul64(w, kk)
				}
				c[hi]++
			}
		case k == 1:
			c[0] = cur.n
		case k <= leafCells && k&(k-1) == 0 && cur.n <= popcountCutoff:
			// ai counts cell i in registers; cell 0 takes the rest.
			var a1, a2, a3, a4, a5, a6, a7 int
			for m := cur.n; m > 0; m -= 64 {
				mask := ^uint64(0)
				if m < 64 {
					mask = 1<<uint(m) - 1
				}
				var w0, w1, w2 uint64
				w0, s0, s1, s2, s3 = xoshiro(s0, s1, s2, s3)
				switch k {
				case 2:
					a1 += bits.OnesCount64(w0 & mask)
				case 4:
					w1, s0, s1, s2, s3 = xoshiro(s0, s1, s2, s3)
					h, l := w1&mask, mask&^w1
					a3 += bits.OnesCount64(h & w0)
					a2 += bits.OnesCount64(h &^ w0)
					a1 += bits.OnesCount64(l & w0)
				case 8:
					w1, s0, s1, s2, s3 = xoshiro(s0, s1, s2, s3)
					w2, s0, s1, s2, s3 = xoshiro(s0, s1, s2, s3)
					h, l := w2&mask, mask&^w2
					hh, hl, lh, ll := h&w1, h&^w1, l&w1, l&^w1
					a7 += bits.OnesCount64(hh & w0)
					a6 += bits.OnesCount64(hh &^ w0)
					a5 += bits.OnesCount64(hl & w0)
					a4 += bits.OnesCount64(hl &^ w0)
					a3 += bits.OnesCount64(lh & w0)
					a2 += bits.OnesCount64(lh &^ w0)
					a1 += bits.OnesCount64(ll & w0)
				}
			}
			c[0], c[1] = cur.n-a1-a2-a3-a4-a5-a6-a7, a1
			if k >= 4 {
				c[2], c[3] = a2, a3
			}
			if k == 8 {
				c[4], c[5], c[6], c[7] = a4, a5, a6, a7
			}
		default:
			// l is the largest power of two below k: half of a
			// power-of-two segment, else 2^⌊log₂k⌋. x of the cur.n draws
			// land in the first l cells.
			l := 1 << (bits.Len(uint(k-1)) - 1)
			var x int
			if 2*l != k || cur.n > popcountCutoff {
				// Biased split, or a fair split too large for popcount:
				// the general samplers read state through the receiver,
				// so sync the locals around the call.
				r.s[0], r.s[1], r.s[2], r.s[3] = s0, s1, s2, s3
				if 2*l != k {
					// k−l < l, so p = (k−l)/k < 1/2 is Binomial's own
					// no-flip path.
					x = cur.n - r.binomialBelowHalf(cur.n, float64(k-l)/float64(k))
				} else {
					x = r.binomialBTRS(cur.n, 0.5)
				}
				s0, s1, s2, s3 = r.s[0], r.s[1], r.s[2], r.s[3]
			} else {
				// Fair split: popcount of cur.n fresh bits.
				for m := cur.n; m > 0; m -= 64 {
					var w uint64
					w, s0, s1, s2, s3 = xoshiro(s0, s1, s2, s3)
					if m < 64 {
						w &= 1<<uint(m) - 1
					}
					x += bits.OnesCount64(w)
				}
			}
			// A two-cell segment gets here only above popcountCutoff; it
			// writes both cells and pops rather than visiting two
			// one-cell segments, which on a 65536-cell draw of 1e9 is
			// 32768 fewer visits (BenchmarkMultinomialEqual/maxpilot_1e9
			// read 1.08× the time without it).
			if k > 2 {
				stack[sp] = seg{cur.n - x, cur.lo + l, cur.hi}
				sp++
				cur = seg{x, cur.lo, cur.lo + l}
				continue
			}
			c[0], c[1] = x, cur.n-x
		}
		if sp == 0 {
			break
		}
		sp--
		cur = stack[sp]
	}
	r.s[0], r.s[1], r.s[2], r.s[3] = s0, s1, s2, s3
}

// Uint64Block fills dst with consecutive outputs of the generator,
// producing exactly the stream len(dst) sequential Uint64 calls would,
// with the state kept in registers across the whole block. It is the
// bulk primitive under the batched resampling helpers.
func (r *Rand) Uint64Block(dst []uint64) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i := range dst {
		dst[i], s0, s1, s2, s3 = xoshiro(s0, s1, s2, s3)
	}
	r.s[0], r.s[1], r.s[2], r.s[3] = s0, s1, s2, s3
}

// resampleBlock is the batch width for the block-fill resamplers: big
// enough to amortize the per-block bookkeeping, small enough to live on
// the stack.
const resampleBlock = 128

// ResampleFloat64s fills dst with a uniform with-replacement resample of
// src (each dst element an independent uniform pick from src). Index
// generation runs over Uint64Block batches with Lemire reduction, so the
// call makes no heap allocations and touches the generator in blocks.
func (r *Rand) ResampleFloat64s(dst, src []float64) {
	n := uint64(len(src))
	if n == 0 {
		panic("rng: ResampleFloat64s from an empty source")
	}
	var buf [resampleBlock]uint64
	threshold := (-n) % n
	i := 0
	for i < len(dst) {
		k := len(dst) - i
		if k > resampleBlock {
			k = resampleBlock
		}
		r.Uint64Block(buf[:k])
		for _, w := range buf[:k] {
			hi, lo := bits.Mul64(w, n)
			for lo < threshold {
				// Lemire rejection: rare (probability < n/2^64), so the
				// retry draws straight from the generator.
				hi, lo = bits.Mul64(r.Uint64(), n)
			}
			dst[i] = src[hi]
			i++
		}
	}
}
