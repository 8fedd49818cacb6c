package stats

import (
	"math"
	"testing"
	"testing/quick"

	"nodevar/internal/rng"
)

func almostEq(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol
}

func TestMeanVarianceKnown(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	// Sum of squared deviations = 32; sample variance = 32/7.
	if got := StdDev(xs); !almostEq(got, math.Sqrt(32.0/7), 1e-12) {
		t.Errorf("StdDev = %v", got)
	}
}

func TestMeanPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Mean of empty slice did not panic")
		}
	}()
	Mean(nil)
}

func TestCoefficientOfVariation(t *testing.T) {
	// σ/μ for a known sample.
	xs := []float64{90, 100, 110}
	want := 10.0 / 100.0
	if got := CoefficientOfVariation(xs); !almostEq(got, want, 1e-12) {
		t.Errorf("CV = %v, want %v", got, want)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5, -9, 2, 6}
	if got := Min(xs); got != -9 {
		t.Errorf("Min = %v", got)
	}
	if got := Max(xs); got != 6 {
		t.Errorf("Max = %v", got)
	}
}

func TestQuantileType7(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct{ p, want float64 }{
		{0, 1}, {1, 10}, {0.5, 5.5}, {0.25, 3.25}, {0.75, 7.75}, {0.1, 1.9},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.p); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestQuantileDoesNotModifyInput(t *testing.T) {
	xs := []float64{5, 1, 3}
	Quantile(xs, 0.5)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Errorf("Quantile modified its input: %v", xs)
	}
}

func TestQuantilePanics(t *testing.T) {
	for _, p := range []float64{-0.1, 1.1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Quantile(p=%v) did not panic", p)
				}
			}()
			Quantile([]float64{1, 2}, p)
		}()
	}
}

func TestSkewnessSymmetric(t *testing.T) {
	xs := []float64{-2, -1, 0, 1, 2}
	if got := Skewness(xs); !almostEq(got, 0, 1e-12) {
		t.Errorf("Skewness of symmetric data = %v, want 0", got)
	}
}

func TestSkewnessSign(t *testing.T) {
	right := []float64{1, 1, 1, 2, 2, 3, 5, 9, 20}
	if got := Skewness(right); got <= 0 {
		t.Errorf("right-skewed data has Skewness %v, want > 0", got)
	}
}

// TestMedianOddEven pins the Summary median to the middle order
// statistic (odd n) and the mean of the two middle ones (even n),
// regardless of input order.
func TestMedianOddEven(t *testing.T) {
	if got := Summarize([]float64{3, 1, 2}).Median; got != 2 {
		t.Errorf("median of odd sample = %v, want 2", got)
	}
	if got := Summarize([]float64{4, 1, 3, 2}).Median; got != 2.5 {
		t.Errorf("median of even sample = %v, want 2.5", got)
	}
}

func TestExcessKurtosisNormalSample(t *testing.T) {
	r := rng.New(5)
	var acc Accumulator
	for i := 0; i < 50000; i++ {
		acc.Add(r.NormFloat64())
	}
	if got := acc.ExcessKurtosis(); math.Abs(got) > 0.15 {
		t.Errorf("normal sample excess kurtosis = %v, want ~0", got)
	}
}

func TestSummarize(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	s := Summarize(xs)
	if s.N != 5 || s.Mean != 30 || s.Min != 10 || s.Max != 50 || s.Median != 30 {
		t.Errorf("Summary = %+v", s)
	}
	if !almostEq(s.CV, s.StdDev/30, 1e-15) {
		t.Errorf("CV = %v inconsistent with SD %v", s.CV, s.StdDev)
	}
}

// Property: mean lies between min and max.
func TestQuickMeanBounded(t *testing.T) {
	f := func(raw []float64) bool {
		xs := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e12 {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		m := Mean(xs)
		return m >= Min(xs)-1e-6 && m <= Max(xs)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the standard deviation is translation-invariant and scales
// linearly.
func TestQuickVarianceAffine(t *testing.T) {
	f := func(seed uint64, shiftRaw, scaleRaw uint8) bool {
		r := rng.New(seed)
		xs := make([]float64, 16)
		for i := range xs {
			xs[i] = r.Float64() * 100
		}
		shift := float64(shiftRaw)
		scale := 1 + float64(scaleRaw%10)
		sd := StdDev(xs)
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = scale*x + shift
		}
		return almostEq(StdDev(ys), scale*sd, 1e-6*(1+scale*sd))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Quantile is monotone in p.
func TestQuickQuantileMonotone(t *testing.T) {
	f := func(seed uint64, p1, p2 float64) bool {
		a := math.Abs(math.Mod(p1, 1))
		b := math.Abs(math.Mod(p2, 1))
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		r := rng.New(seed)
		xs := make([]float64, 25)
		for i := range xs {
			xs[i] = r.NormFloat64()
		}
		return Quantile(xs, a) <= Quantile(xs, b)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
