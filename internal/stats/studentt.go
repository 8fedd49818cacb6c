package stats

import "math"

// StudentT is Student's t distribution with Nu > 0 degrees of freedom,
// used for the small-sample confidence intervals of Equation 1.
type StudentT struct {
	Nu float64
}

var _ Distribution = StudentT{}

func (d StudentT) check() {
	if !(d.Nu > 0) {
		panic("stats: StudentT requires Nu > 0")
	}
}

// PDF returns the t density at x.
func (d StudentT) PDF(x float64) float64 {
	d.check()
	nu := d.Nu
	lg1, _ := math.Lgamma((nu + 1) / 2)
	lg2, _ := math.Lgamma(nu / 2)
	logc := lg1 - lg2 - 0.5*math.Log(nu*math.Pi)
	return math.Exp(logc - (nu+1)/2*math.Log1p(x*x/nu))
}

// CDF returns P(T <= x) via the regularized incomplete beta function.
func (d StudentT) CDF(x float64) float64 {
	d.check()
	if math.IsNaN(x) {
		return math.NaN()
	}
	if x == 0 {
		return 0.5
	}
	nu := d.Nu
	if nu > largeNu {
		// w below rounds toward 1 as ν grows (at ν = 1e15 it would put
		// CDF(1.96) at 0.035), so mirror Quantile: Φ(x) − φ(x)·g(x), the
		// 1/ν expansion around the normal whose first omitted term is
		// O(x¹¹/ν³).
		x2 := x * x
		g := x*(x2+1)/(4*nu) + x*(((3*x2-7)*x2-5)*x2-3)/(96*nu*nu)
		return StdNormal.CDF(x) - StdNormal.PDF(x)*g
	}
	// For t > 0: CDF = 1 - I_{ν/(ν+t²)}(ν/2, 1/2) / 2.
	w := nu / (nu + x*x)
	tail := 0.5 * RegIncompleteBeta(nu/2, 0.5, w)
	if x > 0 {
		return 1 - tail
	}
	return tail
}

// Quantile returns the p-quantile of the t distribution, i.e. the
// t_{n-1,1-α/2} factor of Equation 1 when called with p = 1-α/2 and
// Nu = n-1. For p in {0, 1} it returns ∓Inf.
func (d StudentT) Quantile(p float64) float64 {
	d.check()
	switch {
	case p < 0 || p > 1 || math.IsNaN(p):
		panic("stats: StudentT.Quantile requires p in [0, 1]")
	case p == 0:
		return math.Inf(-1)
	case p == 1:
		return math.Inf(1)
	case p == 0.5:
		return 0
	case p < 0.5:
		return -d.Quantile(1 - p)
	}
	nu := d.Nu
	if nu > largeNu {
		// w = ν/(ν+t²) rounds toward 1 as ν grows, so the inversion below
		// loses digits (at ν = 1e15 it returns 3.0 for p = 0.95). The
		// Cornish–Fisher expansion's first omitted term, O(z⁷/ν³), is
		// under 1e-13 here for p <= 0.999.
		z := ZQuantile(p)
		z2 := z * z
		return z + z*(z2+1)/(4*nu) + z*((5*z2+16)*z2+3)/(96*nu*nu)
	}
	// p > 0.5: invert tail = I_w(ν/2, 1/2) with w = ν/(ν+t²).
	w := InverseRegIncompleteBeta(nu/2, 0.5, 2*(1-p))
	if w <= 0 {
		return math.Inf(1)
	}
	return math.Sqrt(nu * (1 - w) / w)
}

// largeNu is where StudentT.Quantile and CDF switch from the incomplete
// beta to the 1/ν expansions around the normal: the two agree to 4e-12
// (quantile) and 2e-13 (CDF) at ν = 1e4, and no reproduced table or
// figure uses a larger ν, so their bytes do not depend on the switch.
const largeNu = 1e5

// Mean returns 0 for Nu > 1 and NaN otherwise.
func (d StudentT) Mean() float64 {
	d.check()
	if d.Nu > 1 {
		return 0
	}
	return math.NaN()
}

// Variance returns Nu/(Nu-2) for Nu > 2, +Inf for 1 < Nu <= 2, and NaN
// otherwise.
func (d StudentT) Variance() float64 {
	d.check()
	switch {
	case d.Nu > 2:
		return d.Nu / (d.Nu - 2)
	case d.Nu > 1:
		return math.Inf(1)
	default:
		return math.NaN()
	}
}

// TQuantile returns the 1-α/2 quantile of the t distribution with df
// degrees of freedom — the exact critical value the paper approximates by
// z_{1-α/2} for large samples. It panics if df <= 0.
func TQuantile(df int, p float64) float64 {
	return StudentT{Nu: float64(df)}.Quantile(p)
}
