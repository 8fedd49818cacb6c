package stats

import (
	"fmt"
	"math"
)

// Interval is a two-sided confidence interval for a mean.
type Interval struct {
	// Center is the point estimate μ̂.
	Center float64
	// HalfWidth is the interval half-width, so the interval is
	// [Center-HalfWidth, Center+HalfWidth].
	HalfWidth float64
	// Confidence is the nominal coverage, e.g. 0.95.
	Confidence float64
}

// Lo returns the lower endpoint.
func (ci Interval) Lo() float64 { return ci.Center - ci.HalfWidth }

// Hi returns the upper endpoint.
func (ci Interval) Hi() float64 { return ci.Center + ci.HalfWidth }

// RelativeHalfWidthOK returns HalfWidth/|Center|, the paper's accuracy
// statement λ ("within λ·μ of the true total"), and true; or 0 and false
// when the center is 0 or NaN — degenerate point estimates that best-effort aggregation
// over dropped nodes or meters can produce (see internal/faults). Callers
// on fault-tolerant paths must surface the false case as a degraded
// result rather than a 0% error.
func (ci Interval) RelativeHalfWidthOK() (float64, bool) {
	if ci.Center == 0 || math.IsNaN(ci.Center) {
		return 0, false
	}
	return ci.HalfWidth / math.Abs(ci.Center), true
}

// String formats the interval as "x ± h (95%)".
func (ci Interval) String() string {
	return fmt.Sprintf("%.4g ± %.4g (%.0f%%)", ci.Center, ci.HalfWidth, ci.Confidence*100)
}

// CIOptions controls confidence-interval construction.
type CIOptions struct {
	// Confidence is the nominal two-sided coverage (1-α), e.g. 0.95.
	Confidence float64
	// UseZ selects the normal-quantile approximation of Equation 2
	// instead of the exact t quantile of Equation 1.
	UseZ bool
	// PopulationSize, when > 0, applies the finite population correction
	// factor sqrt((N-n)/(N-1)) to the standard error, for sampling
	// without replacement from a population of this size.
	PopulationSize int
}

// MeanCI returns a confidence interval for the population mean from the
// sample xs, following Equation 1 (t) or Equation 2 (z) of the paper,
// optionally with the finite population correction. It panics if
// len(xs) < 2 or the confidence is outside (0, 1).
func MeanCI(xs []float64, opts CIOptions) Interval {
	if len(xs) < 2 {
		panic("stats: MeanCI needs at least 2 observations")
	}
	mean, sd := MeanStdDev(xs)
	return MeanCIFromStats(mean, sd, len(xs), opts)
}

// MeanCIFromStats builds the interval directly from summary statistics:
// sample mean, sample standard deviation and sample size.
func MeanCIFromStats(mean, sd float64, n int, opts CIOptions) Interval {
	if n < 2 {
		panic("stats: MeanCIFromStats needs n >= 2")
	}
	if sd < 0 {
		panic("stats: negative standard deviation")
	}
	if !(opts.Confidence > 0 && opts.Confidence < 1) {
		panic("stats: confidence must be in (0, 1)")
	}
	p := 1 - (1-opts.Confidence)/2
	var q float64
	if opts.UseZ {
		q = ZQuantile(p)
	} else {
		q = TQuantile(n-1, p)
	}
	se := sd / math.Sqrt(float64(n))
	if N := opts.PopulationSize; N > 0 {
		if n > N {
			panic("stats: sample larger than population")
		}
		if N > 1 {
			se *= math.Sqrt(float64(N-n) / float64(N-1))
		}
	}
	return Interval{Center: mean, HalfWidth: q * se, Confidence: opts.Confidence}
}
