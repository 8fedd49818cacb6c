// Package stats implements the statistical machinery the paper's
// methodology relies on: descriptive statistics, histograms, the normal
// and Student-t distributions (density, CDF and quantile), confidence
// intervals with and without finite-population correction, and normality
// diagnostics.
//
// Go's standard library has no statistics support, so everything here is
// built from scratch on top of package math and validated in the tests
// against closed-form identities and reference values.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that cannot operate on empty data.
var ErrEmpty = errors.New("stats: empty data")

// accumulate runs one Welford pass over xs.
func accumulate(xs []float64) *Accumulator {
	var acc Accumulator
	acc.AddSlice(xs)
	return &acc
}

// Mean returns the arithmetic mean of xs. It panics if xs is empty.
func Mean(xs []float64) float64 { return accumulate(xs).Mean() }

// StdDev returns the sample standard deviation (divisor n-1) of xs. It
// panics if len(xs) < 2.
func StdDev(xs []float64) float64 { return accumulate(xs).StdDev() }

// MeanStdDev returns the sample mean and sample standard deviation in one
// pass over the data.
func MeanStdDev(xs []float64) (mean, sd float64) {
	acc := accumulate(xs)
	return acc.Mean(), acc.StdDev()
}

// CoefficientOfVariation returns σ̂/μ̂, the paper's per-system variability
// measure (Table 4). It panics if the mean is zero.
func CoefficientOfVariation(xs []float64) float64 {
	mean, sd := MeanStdDev(xs)
	if mean == 0 {
		panic("stats: coefficient of variation undefined for zero mean")
	}
	return sd / mean
}

// Min returns the smallest element of xs. It panics if xs is empty.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic(ErrEmpty)
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs. It panics if xs is empty.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic(ErrEmpty)
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Quantile returns the p-quantile of xs (0 <= p <= 1) using linear
// interpolation between order statistics (the common "type 7" definition
// used by R and NumPy). The input is not modified. It panics if xs is
// empty or p is outside [0, 1].
func Quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic(ErrEmpty)
	}
	if p < 0 || p > 1 || math.IsNaN(p) {
		panic("stats: quantile probability outside [0, 1]")
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return quantileSorted(sorted, p)
}

func quantileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	h := p * float64(n-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= n {
		return sorted[n-1]
	}
	frac := h - float64(lo)
	return sorted[lo] + frac*(sorted[hi]-sorted[lo])
}

// Skewness returns the adjusted Fisher-Pearson sample skewness
// (the g1 estimator with bias correction). It panics if len(xs) < 3.
func Skewness(xs []float64) float64 { return accumulate(xs).Skewness() }

// Summary captures the descriptive statistics reported throughout the
// paper for a per-node power dataset.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	CV     float64 // StdDev / Mean, the paper's σ̂/μ̂
	Min    float64
	Q1     float64
	Median float64
	Q3     float64
	Max    float64
}

// Summarize computes a Summary of xs. It panics if len(xs) < 2.
func Summarize(xs []float64) Summary {
	if len(xs) < 2 {
		panic("stats: Summarize needs at least 2 observations")
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	mean, sd := MeanStdDev(xs)
	cv := math.NaN()
	if mean != 0 {
		cv = sd / mean
	}
	return Summary{
		N:      len(xs),
		Mean:   mean,
		StdDev: sd,
		CV:     cv,
		Min:    sorted[0],
		Q1:     quantileSorted(sorted, 0.25),
		Median: quantileSorted(sorted, 0.5),
		Q3:     quantileSorted(sorted, 0.75),
		Max:    sorted[len(sorted)-1],
	}
}
