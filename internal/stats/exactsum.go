package stats

import (
	"math"
	"math/bits"
)

// ExactSum accumulates float64 values with no rounding error at all: every
// finite float64 (and every product of two float64 mantissas) is an integer
// multiple of 2^-exactBias, so the running sum is held as a pair of
// fixed-point magnitudes wide enough to cover the full double range with
// headroom for 2^63 addends. Because the carrier is exact, addition is
// associative and commutative — the represented value after any sequence
// of Add and Merge calls depends only on the multiset of inputs, never on
// grouping or order. Value renders the exact sum to the nearest float64
// (ties to even), so renderings are bit-identical across any partition of
// a stream into sub-accumulators merged in any order. That is the property
// classic Welford merging (Accumulator.Merge) can only approximate, and it
// is what makes StreamMoments safe to shard and re-merge freely.
//
// The zero value is an empty sum ready for use. Methods are not safe for
// concurrent use.
type ExactSum struct {
	pos, neg [exactLimbs]uint64
}

const (
	// exactLimbs × 64 = 4352 bits of fixed point. The largest magnitude a
	// sum can reach is bounded by 2^63 addends of x² ≤ 2^2048, i.e.
	// 2^2111 = 2^4259·2^-exactBias, comfortably inside the carrier.
	exactLimbs = 68
	// exactBias scales the fixed point: the represented value is
	// (pos − neg) × 2^-exactBias. 2148 covers the smallest product of two
	// subnormal mantissa scales (2^-1074)² = 2^-2148 exactly.
	exactBias = 2148
)

// split decomposes a finite float64 into an integer mantissa m and
// exponent e with x = ±m·2^e. It reports m == 0 for ±0.
func split(x float64) (m uint64, e int, negative bool) {
	b := math.Float64bits(x)
	exp := int(b >> 52 & 0x7ff)
	frac := b & (1<<52 - 1)
	if exp == 0x7ff {
		panic("stats: ExactSum of a non-finite value")
	}
	if exp == 0 {
		return frac, -1074, b>>63 == 1 // subnormal (or zero)
	}
	return frac | 1<<52, exp - 1075, b>>63 == 1
}

// Add incorporates x exactly. It panics if x is NaN or ±Inf.
func (s *ExactSum) Add(x float64) {
	m, e, neg := split(x)
	if m == 0 {
		return
	}
	dst := &s.pos
	if neg {
		dst = &s.neg
	}
	addShifted(dst, 0, m, e+exactBias)
}

// AddSquare incorporates x·x exactly (the true real product, not the
// rounded float64 square), enabling exact second moments. It panics if x
// is NaN or ±Inf.
func (s *ExactSum) AddSquare(x float64) {
	m, e, _ := split(x)
	if m == 0 {
		return
	}
	hi, lo := bits.Mul64(m, m)
	addShifted(&s.pos, hi, lo, 2*e+exactBias)
}

// Merge adds o's exact value into s. o is unmodified.
func (s *ExactSum) Merge(o *ExactSum) {
	addLimbs(&s.pos, &o.pos)
	addLimbs(&s.neg, &o.neg)
}

// Value renders the exact sum to the nearest float64, ties to even. A sum
// whose magnitude exceeds the float64 range renders to ±Inf; one below
// half the smallest subnormal renders to 0.
func (s *ExactSum) Value() float64 {
	var mag [exactLimbs]uint64
	negative := false
	switch cmpLimbs(&s.pos, &s.neg) {
	case 0:
		return 0
	case 1:
		subLimbs(&mag, &s.pos, &s.neg)
	default:
		negative = true
		subLimbs(&mag, &s.neg, &s.pos)
	}
	t := topBit(&mag)
	// Mantissa window: 53 bits ending at the top bit, but never below
	// absolute bit 1074 (= 2^-1074, the subnormal cutoff), which makes
	// gradual underflow come out right without a separate code path.
	wlo := t - 52
	if wlo < exactBias-1074 {
		wlo = exactBias - 1074
	}
	var mant uint64
	if t >= wlo {
		mant = extractBits(&mag, wlo, t-wlo+1)
	}
	if wlo > 0 && bitAt(&mag, wlo-1) {
		// Round to nearest, ties to even: the guard bit is set; round up
		// when any sticky bit below it is set or the mantissa is odd.
		if mant&1 == 1 || anyBitsBelow(&mag, wlo-1) {
			mant++ // mant ≤ 2^53 afterwards: still exact in float64
		}
	}
	v := math.Ldexp(float64(mant), wlo-exactBias)
	if negative {
		v = -v
	}
	return v
}

// valueDD renders the exact sum as hi + lo: hi is Value and lo the
// rendering of the exact remainder, so the pair carries ~106 significant
// bits. A sum past the float64 range renders as (±Inf, 0).
func (s *ExactSum) valueDD() (hi, lo float64) {
	hi = s.Value()
	if math.IsInf(hi, 0) {
		return hi, 0
	}
	r := *s
	r.Add(-hi)
	return hi, r.Value()
}

// addShifted adds the 128-bit quantity hi:lo, shifted left by offset bits,
// into l with carry propagation.
func addShifted(l *[exactLimbs]uint64, hi, lo uint64, offset int) {
	li, sh := offset/64, uint(offset%64)
	w0, w1, w2 := lo, hi, uint64(0)
	if sh != 0 {
		w2 = hi >> (64 - sh)
		w1 = hi<<sh | lo>>(64-sh)
		w0 = lo << sh
	}
	var c uint64
	l[li], c = bits.Add64(l[li], w0, 0)
	l[li+1], c = bits.Add64(l[li+1], w1, c)
	l[li+2], c = bits.Add64(l[li+2], w2, c)
	for i := li + 3; c != 0; i++ {
		if i >= exactLimbs {
			panic("stats: ExactSum overflow")
		}
		l[i], c = bits.Add64(l[i], 0, c)
	}
}

func addLimbs(dst, src *[exactLimbs]uint64) {
	var c uint64
	for i := range dst {
		dst[i], c = bits.Add64(dst[i], src[i], c)
	}
	if c != 0 {
		panic("stats: ExactSum overflow")
	}
}

// cmpLimbs compares two magnitudes: -1, 0 or +1.
func cmpLimbs(a, b *[exactLimbs]uint64) int {
	for i := exactLimbs - 1; i >= 0; i-- {
		switch {
		case a[i] > b[i]:
			return 1
		case a[i] < b[i]:
			return -1
		}
	}
	return 0
}

// subLimbs computes dst = a - b; the caller guarantees a >= b.
func subLimbs(dst, a, b *[exactLimbs]uint64) {
	var borrow uint64
	for i := range dst {
		dst[i], borrow = bits.Sub64(a[i], b[i], borrow)
	}
}

// topBit returns the bit index of the most significant set bit; the
// caller guarantees the magnitude is nonzero.
func topBit(l *[exactLimbs]uint64) int {
	for i := exactLimbs - 1; i >= 0; i-- {
		if l[i] != 0 {
			return i*64 + bits.Len64(l[i]) - 1
		}
	}
	panic("stats: topBit of zero magnitude")
}

// extractBits returns n (≤ 64) bits of l starting at bit position from.
func extractBits(l *[exactLimbs]uint64, from, n int) uint64 {
	li, sh := from/64, uint(from%64)
	v := l[li] >> sh
	if sh != 0 && li+1 < exactLimbs {
		v |= l[li+1] << (64 - sh)
	}
	if n < 64 {
		v &= 1<<uint(n) - 1
	}
	return v
}

func bitAt(l *[exactLimbs]uint64, i int) bool {
	return l[i/64]>>(uint(i%64))&1 == 1
}

// anyBitsBelow reports whether any bit at a position strictly below i is
// set.
func anyBitsBelow(l *[exactLimbs]uint64, i int) bool {
	li, sh := i/64, uint(i%64)
	if l[li]&(1<<sh-1) != 0 {
		return true
	}
	for j := 0; j < li; j++ {
		if l[j] != 0 {
			return true
		}
	}
	return false
}
