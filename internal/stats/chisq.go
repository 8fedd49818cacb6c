package stats

import "math"

// ChiSquared is the χ² distribution with K > 0 degrees of freedom. It
// backs the confidence interval for a sample variance — the error bar on
// the σ̂/μ̂ ratio that drives the paper's sample-size recommendations.
type ChiSquared struct {
	K float64
}

var _ Distribution = ChiSquared{}

func (d ChiSquared) check() {
	if !(d.K > 0) {
		panic("stats: ChiSquared requires K > 0")
	}
}

// PDF returns the χ² density at x (0 for x < 0).
func (d ChiSquared) PDF(x float64) float64 {
	d.check()
	if x < 0 {
		return 0
	}
	if x == 0 {
		switch {
		case d.K < 2:
			return math.Inf(1)
		case d.K == 2:
			return 0.5
		default:
			return 0
		}
	}
	k2 := d.K / 2
	lg, _ := math.Lgamma(k2)
	return math.Exp((k2-1)*math.Log(x) - x/2 - k2*math.Ln2 - lg)
}

// CDF returns P(X <= x) via the regularized lower incomplete gamma
// function.
func (d ChiSquared) CDF(x float64) float64 {
	d.check()
	if x <= 0 {
		return 0
	}
	return RegLowerGamma(d.K/2, x/2)
}

// Quantile returns the p-quantile by monotone bisection refined with
// Newton steps. For p in {0, 1} it returns 0 and +Inf.
func (d ChiSquared) Quantile(p float64) float64 {
	d.check()
	switch {
	case p < 0 || p > 1 || math.IsNaN(p):
		panic("stats: ChiSquared.Quantile requires p in [0, 1]")
	case p == 0:
		return 0
	case p == 1:
		return math.Inf(1)
	}
	// Bracket: mean ± a few standard deviations, expanded as needed.
	lo, hi := 0.0, d.K+10*math.Sqrt(2*d.K)+10
	for d.CDF(hi) < p {
		hi *= 2
		if math.IsInf(hi, 1) {
			return hi
		}
	}
	x := d.K // start at the mean
	for i := 0; i < 200; i++ {
		v := d.CDF(x)
		if v > p {
			hi = x
		} else {
			lo = x
		}
		var next float64
		if dens := d.PDF(x); dens > 0 {
			next = x - (v-p)/dens
		}
		if !(next > lo && next < hi) {
			next = (lo + hi) / 2
		}
		if math.Abs(next-x) < 1e-12*(1+x) {
			return next
		}
		x = next
	}
	return x
}

// Mean returns K.
func (d ChiSquared) Mean() float64 { d.check(); return d.K }

// Variance returns 2K.
func (d ChiSquared) Variance() float64 { d.check(); return 2 * d.K }

// RegLowerGamma returns the regularized lower incomplete gamma function
// P(a, x) for a > 0, x >= 0, using the series for x < a+1 and the
// continued fraction otherwise.
func RegLowerGamma(a, x float64) float64 {
	switch {
	case math.IsNaN(a) || math.IsNaN(x):
		return math.NaN()
	case a <= 0:
		panic("stats: RegLowerGamma requires a > 0")
	case x < 0:
		panic("stats: RegLowerGamma requires x >= 0")
	case x == 0:
		return 0
	}
	if x < a+1 {
		return gammaSeries(a, x)
	}
	return 1 - gammaContinuedFraction(a, x)
}

// gammaSeries evaluates P(a, x) by its power series.
func gammaSeries(a, x float64) float64 {
	const maxIter = 1000
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < maxIter; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*1e-16 {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

// gammaContinuedFraction evaluates Q(a, x) = 1 - P(a, x) by the Lentz
// continued fraction.
func gammaContinuedFraction(a, x float64) float64 {
	const (
		maxIter = 1000
		tiny    = 1e-300
	)
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= maxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-16 {
			break
		}
	}
	return h * math.Exp(-x+a*math.Log(x)-lg)
}
