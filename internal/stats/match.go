package stats

import "math"

// MatchMoments affine-transforms xs in place so that its sample mean and
// sample standard deviation (divisor n-1) become exactly the given
// targets. The transformation preserves the shape of the distribution
// (skewness, kurtosis, outlier structure) while pinning the first two
// moments — this is how the synthetic per-node datasets are calibrated to
// the μ̂ and σ̂ the paper publishes in Table 4.
//
// It panics if len(xs) < 2, targetSD < 0, or the input has zero variance
// while targetSD > 0.
func MatchMoments(xs []float64, targetMean, targetSD float64) {
	if len(xs) < 2 {
		panic("stats: MatchMoments needs at least 2 observations")
	}
	if targetSD < 0 {
		panic("stats: MatchMoments requires targetSD >= 0")
	}
	mean, sd := MeanStdDev(xs)
	var scale float64
	switch {
	case targetSD == 0:
		scale = 0
	case sd == 0:
		panic("stats: cannot scale zero-variance data to positive target SD")
	default:
		scale = targetSD / sd
	}
	for i, x := range xs {
		xs[i] = targetMean + (x-mean)*scale
	}
}

// RelativeError returns |got-want| / |want|. It panics if want is zero.
func RelativeError(got, want float64) float64 {
	if want == 0 {
		panic("stats: RelativeError with zero reference")
	}
	return math.Abs(got-want) / math.Abs(want)
}
