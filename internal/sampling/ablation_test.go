package sampling

import (
	"context"
	"math"
	"testing"

	"nodevar/internal/stats"
)

func TestCompareIntervalsZUndercovers(t *testing.T) {
	cfg := defaultCoverageConfig()
	cfg.SampleSizes = []int{3, 5, 15, 50}
	cfg.Levels = []float64{0.95}
	cfg.Replicates = 8000
	cmp, err := CompareIntervalsCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp) != 4 {
		t.Fatalf("comparison points = %d", len(cmp))
	}
	byN := map[int]IntervalComparison{}
	for _, c := range cmp {
		byN[c.SampleSize] = c
	}
	// The paper's caveat: z intervals are too narrow at small n. At n=3
	// the z coverage should drop well below nominal (~0.88 or lower)
	// while t stays calibrated.
	if c := byN[3]; c.CoverageZ > 0.91 || c.CoverageT < 0.93 {
		t.Errorf("n=3: t=%.3f z=%.3f, expected large z under-coverage", c.CoverageT, c.CoverageZ)
	}
	// Under-coverage shrinks with n.
	if byN[3].UnderCoverage() <= byN[50].UnderCoverage() {
		t.Errorf("under-coverage did not shrink: n=3 %.3f vs n=50 %.3f",
			byN[3].UnderCoverage(), byN[50].UnderCoverage())
	}
	// At n=50 the two nearly agree.
	if byN[50].UnderCoverage() > 0.02 {
		t.Errorf("n=50 under-coverage = %.3f", byN[50].UnderCoverage())
	}
}

func TestSyntheticPilotShapes(t *testing.T) {
	for _, shape := range []PilotShape{PilotNormal, PilotOutliers, PilotSkewed, PilotBimodal} {
		xs, err := SyntheticPilot(shape, 2000, 400, 0.025, 7)
		if err != nil {
			t.Fatalf("%v: %v", shape, err)
		}
		mean, sd := stats.MeanStdDev(xs)
		if math.Abs(mean-400) > 25 {
			t.Errorf("%v: mean = %v", shape, mean)
		}
		if sd/mean < 0.015 || sd/mean > 0.04 {
			t.Errorf("%v: cv = %v", shape, sd/mean)
		}
		if shape.String() == "unknown" {
			t.Errorf("shape %d has no name", shape)
		}
	}
	// The skewed pilot is actually skewed; the normal one is not.
	skewed, _ := SyntheticPilot(PilotSkewed, 5000, 400, 0.025, 7)
	normal, _ := SyntheticPilot(PilotNormal, 5000, 400, 0.025, 7)
	if stats.Skewness(skewed) < 1.5 {
		t.Errorf("skewed pilot skewness = %v", stats.Skewness(skewed))
	}
	if math.Abs(stats.Skewness(normal)) > 0.25 {
		t.Errorf("normal pilot skewness = %v", stats.Skewness(normal))
	}
}

func TestSyntheticPilotErrors(t *testing.T) {
	if _, err := SyntheticPilot(PilotNormal, 1, 400, 0.02, 1); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := SyntheticPilot(PilotNormal, 10, -5, 0.02, 1); err == nil {
		t.Error("negative mean accepted")
	}
	if _, err := SyntheticPilot(PilotShape(99), 10, 400, 0.02, 1); err == nil {
		t.Error("unknown shape accepted")
	}
}

func TestRobustnessStudyShapesMatter(t *testing.T) {
	points, err := RobustnessStudy(context.Background(),
		[]PilotShape{PilotNormal, PilotSkewed},
		[]int{5, 50},
		0.95,
		600, 9216, 6000, 11,
	)
	if err != nil {
		t.Fatal(err)
	}
	get := func(shape PilotShape, n int) float64 {
		for _, p := range points {
			if p.Shape == shape && p.SampleSize == n {
				return p.Coverage
			}
		}
		t.Fatalf("missing point %v/%d", shape, n)
		return 0
	}
	// Normal pilot: calibrated at n=5 (the paper's finding).
	if c := get(PilotNormal, 5); math.Abs(c-0.95) > 0.025 {
		t.Errorf("normal coverage at n=5 = %v", c)
	}
	// Heavily skewed pilot: degraded at n=5 (the paper's caveat)...
	if c := get(PilotSkewed, 5); c > get(PilotNormal, 5)-0.01 {
		t.Errorf("skewed coverage at n=5 = %v, expected visible degradation", c)
	}
	// ...and recovery with n is slow for extreme skew (skewness ~6-8):
	// coverage improves from n=5 to n=50 but remains visibly below
	// nominal, which is exactly why the paper scopes its guarantees to
	// balanced workloads.
	if get(PilotSkewed, 50) <= get(PilotSkewed, 5) {
		t.Errorf("skewed coverage did not improve with n: %v -> %v",
			get(PilotSkewed, 5), get(PilotSkewed, 50))
	}
	if c := get(PilotSkewed, 50); c < 0.80 || c > 0.94 {
		t.Errorf("skewed coverage at n=50 = %v, expected partial recovery", c)
	}
}

func TestFPCStudy(t *testing.T) {
	plan := Plan{Confidence: 0.95, Accuracy: 0.005, CV: 0.05}
	effects, err := FPCStudy(plan, []int{400, 1000, 10000, 100000})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range effects {
		if e.WithFPC > e.WithoutFPC {
			t.Errorf("FPC increased n for N=%d: %d > %d", e.Population, e.WithFPC, e.WithoutFPC)
		}
		if i > 0 && e.WithFPC < effects[i-1].WithFPC {
			t.Errorf("FPC requirement not monotone in N")
		}
	}
	// The correction matters for small machines and vanishes for large.
	if effects[0].WithFPC >= effects[0].WithoutFPC {
		t.Errorf("no FPC effect at N=400: %+v", effects[0])
	}
	last := effects[len(effects)-1]
	if last.WithoutFPC-last.WithFPC > 2 {
		t.Errorf("FPC still large at N=100000: %+v", last)
	}
}
