package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"nodevar/internal/rng"
)

// Contains reports whether v lies inside the interval (inclusive).
func (ci Interval) Contains(v float64) bool {
	return v >= ci.Lo() && v <= ci.Hi()
}

func TestIntervalGeometry(t *testing.T) {
	ci := Interval{Center: 10, HalfWidth: 2, Confidence: 0.95}
	if ci.Lo() != 8 || ci.Hi() != 12 {
		t.Errorf("interval endpoints (%v, %v)", ci.Lo(), ci.Hi())
	}
	for _, v := range []float64{8, 10, 12} {
		if !ci.Contains(v) {
			t.Errorf("interval should contain %v", v)
		}
	}
	for _, v := range []float64{7.999, 12.001} {
		if ci.Contains(v) {
			t.Errorf("interval should not contain %v", v)
		}
	}
	if got, ok := ci.RelativeHalfWidthOK(); !ok || got != 0.2 {
		t.Errorf("relative half-width = %v", got)
	}
	if s := ci.String(); !strings.Contains(s, "95%") {
		t.Errorf("String() = %q", s)
	}
}

func TestMeanCIKnownSample(t *testing.T) {
	// Hand-checked: xs has mean 10, sd 2, n 4, se 1.
	// t(3, 0.975) = 3.182446, so half-width = 3.182446.
	// Deviations {-2, +2, -√2, +√2}: squared sum 12, variance 12/3 = 4.
	xs := []float64{8, 12, 8.585786437626905, 11.414213562373095}
	mean, sd := MeanStdDev(xs)
	if !almostEq(mean, 10, 1e-9) || !almostEq(sd, 2, 1e-9) {
		t.Fatalf("test fixture wrong: mean %v sd %v", mean, sd)
	}
	ci := MeanCI(xs, CIOptions{Confidence: 0.95})
	if !almostEq(ci.HalfWidth, 3.182446305284263, 1e-6) {
		t.Errorf("t-based half-width = %v", ci.HalfWidth)
	}
	ciZ := MeanCI(xs, CIOptions{Confidence: 0.95, UseZ: true})
	if !almostEq(ciZ.HalfWidth, 1.959963984540054, 1e-9) {
		t.Errorf("z-based half-width = %v", ciZ.HalfWidth)
	}
}

func TestMeanCIPaperIntroExamples(t *testing.T) {
	// Section 4: "a hypothetical supercomputer with 210 nodes and
	// σ/μ = 2%: the Green500 methodology would require at least 4 nodes
	// ... with 95% certainty our estimate is within 3.2% of the true
	// total." The 1/64 rule on 210 nodes gives ceil(210/64) = 4.
	ci := MeanCIFromStats(100, 2, 4, CIOptions{Confidence: 0.95})
	if rel, _ := ci.RelativeHalfWidthOK(); math.Abs(rel-0.032) > 0.001 {
		t.Errorf("210-node example relative accuracy = %.4f, paper says 3.2%%", rel)
	}
	// "for a supercomputer with 18,688 nodes ... at least 292 nodes ...
	// within 0.2% of the true total."
	ci = MeanCIFromStats(100, 2, 292, CIOptions{Confidence: 0.95})
	if rel, _ := ci.RelativeHalfWidthOK(); math.Abs(rel-0.002) > 0.0005 {
		t.Errorf("18688-node example relative accuracy = %.4f, paper says 0.2%%", rel)
	}
}

func TestMeanCIFinitePopulationCorrection(t *testing.T) {
	base := MeanCIFromStats(100, 2, 50, CIOptions{Confidence: 0.95})
	fpc := MeanCIFromStats(100, 2, 50, CIOptions{Confidence: 0.95, PopulationSize: 100})
	if fpc.HalfWidth >= base.HalfWidth {
		t.Errorf("FPC did not shrink interval: %v vs %v", fpc.HalfWidth, base.HalfWidth)
	}
	want := base.HalfWidth * math.Sqrt(50.0/99.0)
	if !almostEq(fpc.HalfWidth, want, 1e-12) {
		t.Errorf("FPC half-width = %v, want %v", fpc.HalfWidth, want)
	}
	// Census: sampling the whole population leaves no uncertainty.
	census := MeanCIFromStats(100, 2, 50, CIOptions{Confidence: 0.95, PopulationSize: 50})
	if census.HalfWidth != 0 {
		t.Errorf("census half-width = %v, want 0", census.HalfWidth)
	}
}

func TestMeanCIPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"n<2":          func() { MeanCIFromStats(1, 1, 1, CIOptions{Confidence: 0.95}) },
		"bad conf":     func() { MeanCIFromStats(1, 1, 10, CIOptions{Confidence: 0}) },
		"conf 1":       func() { MeanCIFromStats(1, 1, 10, CIOptions{Confidence: 1}) },
		"neg sd":       func() { MeanCIFromStats(1, -1, 10, CIOptions{Confidence: 0.9}) },
		"n>N":          func() { MeanCIFromStats(1, 1, 10, CIOptions{Confidence: 0.9, PopulationSize: 5}) },
		"empty sample": func() { MeanCI([]float64{1}, CIOptions{Confidence: 0.9}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

// Property: higher confidence gives a wider interval; t is wider than z.
func TestQuickCIOrdering(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := 3 + int(nRaw%30)
		r := rng.New(seed)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Normal(100, 10)
		}
		c90 := MeanCI(xs, CIOptions{Confidence: 0.90})
		c99 := MeanCI(xs, CIOptions{Confidence: 0.99})
		cz := MeanCI(xs, CIOptions{Confidence: 0.90, UseZ: true})
		return c99.HalfWidth >= c90.HalfWidth && c90.HalfWidth >= cz.HalfWidth
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanCIEmpiricalCoverage(t *testing.T) {
	// Long-run check: 95% t-intervals from normal samples should cover the
	// true mean ~95% of the time.
	r := rng.New(77)
	const trials, n = 4000, 12
	const mu, sigma = 50.0, 5.0
	covered := 0
	xs := make([]float64, n)
	for i := 0; i < trials; i++ {
		for j := range xs {
			xs[j] = r.Normal(mu, sigma)
		}
		if MeanCI(xs, CIOptions{Confidence: 0.95}).Contains(mu) {
			covered++
		}
	}
	rate := float64(covered) / trials
	if rate < 0.935 || rate > 0.965 {
		t.Errorf("empirical coverage of 95%% t-interval = %.3f", rate)
	}
}

// TestRelativeHalfWidthOK covers the non-panicking variant: a zero or
// NaN center — possible under best-effort aggregation of faulted runs —
// reports false instead of panicking, and the panicking variant still
// panics so existing callers keep their loud failure mode.
func TestRelativeHalfWidthOK(t *testing.T) {
	ci := Interval{Center: 10, HalfWidth: 2, Confidence: 0.95}
	if rel, ok := ci.RelativeHalfWidthOK(); !ok || rel != 0.2 {
		t.Errorf("RelativeHalfWidthOK = %v, %v; want 0.2, true", rel, ok)
	}
	ci.Center = -10
	if rel, ok := ci.RelativeHalfWidthOK(); !ok || rel != 0.2 {
		t.Errorf("negative-center RelativeHalfWidthOK = %v, %v; want 0.2, true", rel, ok)
	}
	for _, center := range []float64{0, math.NaN()} {
		ci := Interval{Center: center, HalfWidth: 2, Confidence: 0.95}
		if rel, ok := ci.RelativeHalfWidthOK(); ok || rel != 0 {
			t.Errorf("center %v: RelativeHalfWidthOK = %v, %v; want 0, false", center, rel, ok)
		}
	}
}

// TestMeanCICensusBoundary pins n == N: sampling the whole population
// collapses the finite population correction to exactly 0, so the
// relative half-width is 0 (not NaN) — agreeing with
// sampling.Plan.ExpectedAccuracy — while n > N still panics.
func TestMeanCICensusBoundary(t *testing.T) {
	opts := CIOptions{Confidence: 0.95, PopulationSize: 4}
	ci := MeanCIFromStats(100, 5, 4, opts)
	if ci.HalfWidth != 0 {
		t.Errorf("census half-width = %v, want exactly 0", ci.HalfWidth)
	}
	if rel, ok := ci.RelativeHalfWidthOK(); !ok || rel != 0 {
		t.Errorf("census relative half-width = %v, %v; want 0, true", rel, ok)
	}

	defer func() {
		if recover() == nil {
			t.Error("MeanCIFromStats did not panic on n > N")
		}
	}()
	MeanCIFromStats(100, 5, 5, opts)
}
