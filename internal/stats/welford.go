package stats

import "math"

// Accumulator computes running moments of a data stream in a single pass
// using the numerically stable Welford/Pébay update formulas. It tracks
// central moments up to order four, so mean, variance, skewness and
// kurtosis are all available without storing the data.
//
// The zero value is an empty accumulator ready for use. It has no merge:
// where partial accumulators are built independently and combined,
// StreamMoments is the carrier, because its merge is exact.
type Accumulator struct {
	n           int64
	mean        float64
	m2, m3, m4  float64
	minSeen     float64
	maxSeen     float64
	hasExtremes bool
}

// Add incorporates one observation.
func (a *Accumulator) Add(x float64) {
	n1 := float64(a.n)
	a.n++
	n := float64(a.n)
	delta := x - a.mean
	deltaN := delta / n
	deltaN2 := deltaN * deltaN
	term1 := delta * deltaN * n1
	a.mean += deltaN
	a.m4 += term1*deltaN2*(n*n-3*n+3) + 6*deltaN2*a.m2 - 4*deltaN*a.m3
	a.m3 += term1*deltaN*(n-2) - 3*deltaN*a.m2
	a.m2 += term1
	if !a.hasExtremes {
		a.minSeen, a.maxSeen = x, x
		a.hasExtremes = true
	} else {
		if x < a.minSeen {
			a.minSeen = x
		}
		if x > a.maxSeen {
			a.maxSeen = x
		}
	}
}

// AddSlice incorporates every element of xs.
func (a *Accumulator) AddSlice(xs []float64) {
	for _, x := range xs {
		a.Add(x)
	}
}

// N returns the number of observations seen.
func (a *Accumulator) N() int { return int(a.n) }

// Mean returns the running mean. It panics if no data has been added.
func (a *Accumulator) Mean() float64 {
	if a.n == 0 {
		panic(ErrEmpty)
	}
	return a.mean
}

// Variance returns the unbiased sample variance (divisor n-1).
// It panics if fewer than two observations have been added.
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		panic("stats: Accumulator.Variance needs at least 2 observations")
	}
	return a.m2 / float64(a.n-1)
}

// PopulationVariance returns the population variance (divisor n).
func (a *Accumulator) PopulationVariance() float64 {
	if a.n == 0 {
		panic(ErrEmpty)
	}
	return a.m2 / float64(a.n)
}

// StdDev returns the sample standard deviation (divisor n-1).
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// Skewness returns the bias-adjusted sample skewness.
// It panics if fewer than three observations have been added or the data
// has zero variance.
func (a *Accumulator) Skewness() float64 {
	if a.n < 3 {
		panic("stats: Accumulator.Skewness needs at least 3 observations")
	}
	n := float64(a.n)
	if a.m2 == 0 {
		panic("stats: skewness undefined for zero variance")
	}
	g1 := math.Sqrt(n) * a.m3 / math.Pow(a.m2, 1.5)
	return g1 * math.Sqrt(n*(n-1)) / (n - 2)
}

// ExcessKurtosis returns the unbiased sample excess kurtosis.
// It panics if fewer than four observations have been added or the data
// has zero variance.
func (a *Accumulator) ExcessKurtosis() float64 {
	if a.n < 4 {
		panic("stats: Accumulator.ExcessKurtosis needs at least 4 observations")
	}
	if a.m2 == 0 {
		panic("stats: kurtosis undefined for zero variance")
	}
	n := float64(a.n)
	g2 := n*a.m4/(a.m2*a.m2) - 3
	return ((n - 1) / ((n - 2) * (n - 3))) * ((n+1)*g2 + 6)
}

// Min returns the smallest observation seen. It panics if no data has been
// added.
func (a *Accumulator) Min() float64 {
	if a.n == 0 {
		panic(ErrEmpty)
	}
	return a.minSeen
}

// Max returns the largest observation seen. It panics if no data has been
// added.
func (a *Accumulator) Max() float64 {
	if a.n == 0 {
		panic(ErrEmpty)
	}
	return a.maxSeen
}
