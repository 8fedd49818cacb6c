package stats

import (
	"math"
	"testing"

	"nodevar/internal/rng"
)

func TestAccumulatorMatchesNaive(t *testing.T) {
	r := rng.New(2)
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = r.Normal(50, 7)
	}
	var acc Accumulator
	acc.AddSlice(xs)
	var sum float64
	for _, x := range xs {
		sum += x
	}
	if mean := sum / float64(len(xs)); !almostEq(acc.Mean(), mean, 1e-9) {
		t.Errorf("mean: acc %v vs naive %v", acc.Mean(), mean)
	}
	if !almostEq(acc.Variance(), twoPassVariance(xs), 1e-7) {
		t.Errorf("variance: acc %v vs naive %v", acc.Variance(), twoPassVariance(xs))
	}
	if acc.N() != len(xs) {
		t.Errorf("N = %d", acc.N())
	}
	if acc.Min() != Min(xs) || acc.Max() != Max(xs) {
		t.Errorf("extremes: (%v,%v) vs (%v,%v)", acc.Min(), acc.Max(), Min(xs), Max(xs))
	}
}

func TestAccumulatorShapeStats(t *testing.T) {
	// Closed-form check of the adjusted skewness estimator for
	// x = {2,4,4,4,5,5,7,9}: mean 5, population m2 = 4, m3 = 42/8 = 5.25,
	// so g1 = 5.25/4^1.5 = 0.65625 and
	// G1 = g1*sqrt(n(n-1))/(n-2) = 0.65625*sqrt(56)/6 = 0.8184875534.
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	var acc Accumulator
	acc.AddSlice(xs)
	if got := acc.Skewness(); !almostEq(got, 0.8184875534, 1e-9) {
		t.Errorf("Skewness = %v, want 0.8184875534", got)
	}
	// Closed-form check of the unbiased excess kurtosis estimator:
	// m2 = 4, m4 = sum((x-5)^4)/n = (81+1+1+1+0+0+16+256)/8 = 44.5
	// g2 = m4/m2^2 - 3 = 44.5/16 - 3 = -0.21875
	// G2 = ((n-1)/((n-2)(n-3))) ((n+1) g2 + 6) with n=8:
	//    = (7/30)(9*(-0.21875)+6) = (7/30)(4.03125) = 0.9406250
	if got := acc.ExcessKurtosis(); !almostEq(got, 0.940625, 1e-9) {
		t.Errorf("ExcessKurtosis = %v, want 0.940625", got)
	}
}

func TestAccumulatorPanicsWithoutData(t *testing.T) {
	var a Accumulator
	for name, f := range map[string]func(){
		"Mean":     func() { a.Mean() },
		"Variance": func() { a.Variance() },
		"Min":      func() { a.Min() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on empty accumulator did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestAccumulatorNumericalStability(t *testing.T) {
	// Large offset: naive two-pass with float32-style cancellation would
	// fail; Welford must stay accurate.
	var acc Accumulator
	const offset = 1e9
	vals := []float64{offset + 4, offset + 7, offset + 13, offset + 16}
	for _, v := range vals {
		acc.Add(v)
	}
	if !almostEq(acc.Mean(), offset+10, 1e-5) {
		t.Errorf("mean = %v", acc.Mean()-offset)
	}
	if !almostEq(acc.Variance(), 30, 1e-4) {
		t.Errorf("variance = %v, want 30", acc.Variance())
	}
	if math.IsNaN(acc.StdDev()) {
		t.Error("NaN stddev")
	}
}

func BenchmarkAccumulatorAdd(b *testing.B) {
	var acc Accumulator
	for i := 0; i < b.N; i++ {
		acc.Add(float64(i % 1000))
	}
}
