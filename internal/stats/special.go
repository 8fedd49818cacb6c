package stats

import "math"

// logBeta returns ln B(a, b) = ln Γ(a) + ln Γ(b) - ln Γ(a+b).
func logBeta(a, b float64) float64 {
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	return la + lb - lab
}

// RegIncompleteBeta returns the regularized incomplete beta function
// I_x(a, b) for a, b > 0 and x in [0, 1], evaluated with the continued
// fraction of Didonato & Morris via the modified Lentz algorithm.
//
// This is the workhorse behind the Student-t CDF used by the confidence
// intervals in Section 4 of the paper.
func RegIncompleteBeta(a, b, x float64) float64 {
	switch {
	case math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(x):
		return math.NaN()
	case a <= 0 || b <= 0:
		panic("stats: RegIncompleteBeta requires a, b > 0")
	case x < 0 || x > 1:
		panic("stats: RegIncompleteBeta requires x in [0, 1]")
	case x == 0:
		return 0
	case x == 1:
		return 1
	}
	// The continued fraction converges fastest for x <= (a+1)/(a+b+2);
	// above that, use the symmetry I_x(a,b) = 1 - I_{1-x}(b,a). Reflect
	// once only: with x on the threshold, rounding can put both x and 1-x
	// above their own thresholds (a = 1/3, b = 3, x = 0.25 once recursed
	// until the stack overflowed).
	if x > (a+1)/(a+b+2) {
		return 1 - betaSeries(b, a, 1-x)
	}
	return betaSeries(a, b, x)
}

// betaSeries is I_x(a, b) by the continued fraction, for x in (0, 1).
func betaSeries(a, b, x float64) float64 {
	front := math.Exp(a*math.Log(x)+b*math.Log(1-x)-logBeta(a, b)) / a
	return front * betaContinuedFraction(a, b, x)
}

// betaContinuedFraction evaluates the continued fraction for the
// incomplete beta function using modified Lentz iteration.
func betaContinuedFraction(a, b, x float64) float64 {
	const (
		maxIter = 500
		eps     = 1e-15
		tiny    = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		// Even step.
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		// Odd step.
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			return h
		}
	}
	// Convergence failure is effectively impossible for the (a, b, x)
	// ranges used in this repository; return the best estimate.
	return h
}

// InverseRegIncompleteBeta returns x such that I_x(a, b) = p, computed by
// bisection refined with Newton steps. p must be in [0, 1].
func InverseRegIncompleteBeta(a, b, p float64) float64 {
	switch {
	case p < 0 || p > 1 || math.IsNaN(p):
		panic("stats: InverseRegIncompleteBeta requires p in [0, 1]")
	case p == 0:
		return 0
	case p == 1:
		return 1
	}
	lo, hi := 0.0, 1.0
	x := 0.5
	for i := 0; i < 200; i++ {
		v := RegIncompleteBeta(a, b, x)
		if v > p {
			hi = x
		} else {
			lo = x
		}
		// Newton step using the beta density as derivative.
		dens := math.Exp((a-1)*math.Log(x) + (b-1)*math.Log(1-x) - logBeta(a, b))
		var next float64
		if dens > 0 {
			next = x - (v-p)/dens
		}
		if !(next > lo && next < hi) {
			next = (lo + hi) / 2
		}
		if math.Abs(next-x) < 1e-16 {
			return next
		}
		x = next
	}
	return x
}
