package sampling

import (
	"context"
	"errors"
	"math"

	"nodevar/internal/rng"
)

// This file holds the ablation studies DESIGN.md calls out: what breaks
// when a design choice of the methodology is removed.
//
//   - t vs z critical values (the paper's Section 4.2 caveat),
//   - the finite population correction (Equation 5's second step),
//   - the balanced/near-normal workload assumption (the paper's stated
//     limit of applicability).

// IntervalComparison contrasts t- and z-based coverage at one (n, level).
type IntervalComparison struct {
	SampleSize int
	Level      float64
	CoverageT  float64
	CoverageZ  float64
}

// UnderCoverage returns how far the z interval falls short of the t
// interval's coverage.
func (c IntervalComparison) UnderCoverage() float64 {
	return c.CoverageT - c.CoverageZ
}

// CompareIntervalsCtx scores exact t and z critical values against one
// shared bootstrap draw and pairs the results: each side equals the
// single study with that rule, at the cost of one replicate loop. A
// cancellation during the pass returns ctx.Err().
func CompareIntervalsCtx(ctx context.Context, cfg CoverageConfig) ([]IntervalComparison, error) {
	points, err := coverageVariants(ctx, cfg, []variant{{pilot: cfg.Pilot}, {pilot: cfg.Pilot, useZ: true}})
	if err != nil {
		return nil, err
	}
	out := make([]IntervalComparison, len(points[0]))
	for i, p := range points[0] {
		out[i] = IntervalComparison{SampleSize: p.SampleSize, Level: p.Level,
			CoverageT: p.Coverage, CoverageZ: points[1][i].Coverage}
	}
	return out, nil
}

// PilotShape selects the synthetic pilot population for robustness
// studies.
type PilotShape int

const (
	// PilotNormal is the balanced-workload case the methodology targets.
	PilotNormal PilotShape = iota
	// PilotOutliers is near-normal with a few heavy nodes (Figure 2's
	// reality).
	PilotOutliers
	// PilotSkewed is heavily right-skewed (log-normal) — the imbalanced
	// workload case the paper excludes from its guarantees.
	PilotSkewed
	// PilotBimodal is a two-population machine (e.g. two hardware
	// generations behind one label), another violation of the
	// methodology's assumptions.
	PilotBimodal
)

// String names the shape.
func (s PilotShape) String() string {
	switch s {
	case PilotNormal:
		return "normal"
	case PilotOutliers:
		return "normal + outliers"
	case PilotSkewed:
		return "heavily skewed"
	case PilotBimodal:
		return "bimodal"
	default:
		return "unknown"
	}
}

// SyntheticPilot generates n per-node power values with the given shape,
// all with mean ~mu and coefficient of variation ~cv (shape changes, the
// first two moments stay comparable so coverage differences are
// attributable to shape alone).
func SyntheticPilot(shape PilotShape, n int, mu, cv float64, seed uint64) ([]float64, error) {
	if n < 2 {
		return nil, errors.New("sampling: pilot needs n >= 2")
	}
	if mu <= 0 || cv <= 0 {
		return nil, errors.New("sampling: pilot needs positive mean and CV")
	}
	r := rng.New(seed)
	xs := make([]float64, n)
	sd := mu * cv
	switch shape {
	case PilotNormal:
		for i := range xs {
			xs[i] = r.Normal(mu, sd)
		}
	case PilotOutliers:
		for i := range xs {
			s := sd
			if r.Bernoulli(0.02) {
				s = 3 * sd
			}
			xs[i] = r.Normal(mu, s)
		}
	case PilotSkewed:
		// Log-normal with matching mean and variance:
		// sigma² = ln(1+cv²), m = ln(mu) - sigma²/2... but a small-cv
		// log-normal is nearly symmetric, so exaggerate the shape with a
		// heavy multiplicative component while keeping the first two
		// moments: mix a compressed core with a long right tail.
		for i := range xs {
			base := math.Exp(r.Normal(0, 1.2)) // heavy right tail
			xs[i] = base
		}
		rescale(xs, mu, sd)
	case PilotBimodal:
		for i := range xs {
			center := mu - sd
			if r.Bernoulli(0.5) {
				center = mu + sd
			}
			xs[i] = r.Normal(center, sd/3)
		}
		rescale(xs, mu, sd)
	default:
		return nil, errors.New("sampling: unknown pilot shape")
	}
	return xs, nil
}

// rescale affinely maps xs to the target mean and standard deviation.
func rescale(xs []float64, mu, sd float64) {
	var m, ss float64
	for _, x := range xs {
		m += x
	}
	m /= float64(len(xs))
	for _, x := range xs {
		ss += (x - m) * (x - m)
	}
	cur := math.Sqrt(ss / float64(len(xs)-1))
	if cur == 0 {
		return
	}
	for i, x := range xs {
		xs[i] = mu + (x-m)*sd/cur
	}
}

// RobustnessPoint is coverage for one pilot shape and sample size.
type RobustnessPoint struct {
	Shape      PilotShape
	SampleSize int
	Level      float64
	Coverage   float64
}

// RobustnessStudy measures CI coverage across pilot shapes, quantifying
// where the methodology's normality assumption actually matters. Every
// shape's pilot has pilotSize nodes, so one replicate loop scores all
// shapes against the same draws (common random numbers); each shape's
// points equal its own single study with the same seed. A cancellation
// during the pass returns ctx.Err().
func RobustnessStudy(ctx context.Context, shapes []PilotShape, sampleSizes []int, level float64,
	pilotSize, population, replicates int, seed uint64) ([]RobustnessPoint, error) {
	vs := make([]variant, len(shapes))
	for i, shape := range shapes {
		pilot, err := SyntheticPilot(shape, pilotSize, 400, 0.025, seed)
		if err != nil {
			return nil, err
		}
		vs[i] = variant{pilot: pilot}
	}
	points, err := coverageVariants(ctx, CoverageConfig{
		Population:  population,
		SampleSizes: sampleSizes,
		Levels:      []float64{level},
		Replicates:  replicates,
		Seed:        seed,
	}, vs)
	if err != nil {
		return nil, err
	}
	var out []RobustnessPoint
	for i, shape := range shapes {
		for _, p := range points[i] {
			out = append(out, RobustnessPoint{Shape: shape, SampleSize: p.SampleSize,
				Level: p.Level, Coverage: p.Coverage})
		}
	}
	return out, nil
}

// FPCEffect reports the required sample size with and without the finite
// population correction across machine sizes, for a fixed plan.
type FPCEffect struct {
	Population int
	WithoutFPC int
	WithFPC    int
}

// FPCStudy computes the FPC ablation for the given populations.
func FPCStudy(plan Plan, populations []int) ([]FPCEffect, error) {
	base := plan
	base.Population = 0
	without, err := base.RequiredSampleSize()
	if err != nil {
		return nil, err
	}
	out := make([]FPCEffect, len(populations))
	for i, N := range populations {
		p := plan
		p.Population = N
		with, err := p.RequiredSampleSize()
		if err != nil {
			return nil, err
		}
		out[i] = FPCEffect{Population: N, WithoutFPC: without, WithFPC: with}
	}
	return out, nil
}
