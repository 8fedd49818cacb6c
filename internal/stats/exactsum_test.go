package stats

import (
	"math"
	"math/big"
	"testing"

	"nodevar/internal/rng"
)

// IsZero reports whether the exact sum is exactly zero (including the
// empty sum).
func (s *ExactSum) IsZero() bool {
	return cmpLimbs(&s.pos, &s.neg) == 0
}

// bigSum computes the exact sum of xs (or of xs² when squares is set)
// with enough big.Float precision that every operation is exact, then
// rounds once to float64 — the reference ExactSum.Value must match
// bit for bit.
func bigSum(xs []float64, squares bool) float64 {
	const prec = 8192
	acc := new(big.Float).SetPrec(prec)
	for _, x := range xs {
		v := new(big.Float).SetPrec(prec).SetFloat64(x)
		if squares {
			v.Mul(v, v)
		}
		acc.Add(acc, v)
	}
	f, _ := acc.Float64()
	return f
}

// mixedValues draws a stream that stresses the carrier: watts-scale
// values, huge and tiny magnitudes, negatives, subnormals and exact
// zeros.
func mixedValues(r *rng.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		switch r.Intn(6) {
		case 0:
			xs[i] = r.Normal(400, 8) // the paper's per-node power scale
		case 1:
			xs[i] = r.Normal(0, 1) * math.Ldexp(1, r.Intn(600)-300)
		case 2:
			xs[i] = -r.Normal(250, 100)
		case 3:
			xs[i] = math.Ldexp(float64(1+r.Intn(1<<20)), -1074+r.Intn(60)) // (near-)subnormal
		case 4:
			xs[i] = 0
		default:
			xs[i] = r.Normal(0, 1e-12)
		}
	}
	return xs
}

func TestExactSumMatchesBigFloat(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		r := rng.New(seed)
		xs := mixedValues(r, 1+r.Intn(300))
		var s, sq ExactSum
		for _, x := range xs {
			s.Add(x)
			sq.AddSquare(x)
		}
		if got, want := s.Value(), bigSum(xs, false); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("seed %d: Σx = %g (%x), big.Float reference %g (%x)",
				seed, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if got, want := sq.Value(), bigSum(xs, true); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("seed %d: Σx² = %g (%x), big.Float reference %g (%x)",
				seed, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

func TestExactSumCancellation(t *testing.T) {
	// The textbook float failure 1e300 + 1 - 1e300 must come out exactly 1.
	var s ExactSum
	s.Add(1e300)
	s.Add(1)
	s.Add(-1e300)
	if got := s.Value(); got != 1 {
		t.Fatalf("1e300 + 1 - 1e300 = %g, want exactly 1", got)
	}

	// Perfect cancellation of many terms is exactly zero.
	s = ExactSum{}
	for i := 0; i < 1000; i++ {
		x := math.Ldexp(1+float64(i), i%200-100)
		s.Add(x)
		s.Add(-x)
	}
	if !s.IsZero() || s.Value() != 0 {
		t.Fatalf("fully canceled sum: IsZero=%v Value=%g, want true/0", s.IsZero(), s.Value())
	}
}

func TestExactSumExtremes(t *testing.T) {
	var s ExactSum
	s.Add(math.MaxFloat64)
	s.Add(math.MaxFloat64)
	if got := s.Value(); !math.IsInf(got, 1) {
		t.Fatalf("2×MaxFloat64 = %g, want +Inf", got)
	}

	s = ExactSum{}
	tiny := math.Ldexp(1, -1074) // smallest subnormal
	s.Add(tiny)
	if got := s.Value(); got != tiny {
		t.Fatalf("smallest subnormal round-trips to %g, want %g", got, tiny)
	}
	// Half the smallest subnormal (as an exact sum of squares of
	// 2^-537·√2-ish values cannot be constructed directly; use the square
	// path): (2^-537)² = 2^-1074 is representable, and (subnormal)²
	// underflows the float64 range but stays exact in the carrier.
	s = ExactSum{}
	s.AddSquare(math.Ldexp(1, -537))
	if got := s.Value(); got != tiny {
		t.Fatalf("(2^-537)² = %g, want %g", got, tiny)
	}
	s = ExactSum{}
	s.AddSquare(tiny) // 2^-2148: rounds to zero on render
	if got := s.Value(); got != 0 {
		t.Fatalf("(2^-1074)² rendered %g, want 0 (below half the smallest subnormal)", got)
	}
	if s.IsZero() {
		t.Fatal("(2^-1074)² is exactly held, the carrier must not be zero")
	}
}

func TestExactSumPanicsOnNonFinite(t *testing.T) {
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%v) did not panic", x)
				}
			}()
			var s ExactSum
			s.Add(x)
		}()
	}
}
