// Package sampling implements Section 4 of the paper: the sample-size
// formula for extrapolating full-system power from a measured node subset
// (Equations 1-5), the published recommendation table (Table 5), the old
// and new list rules, the two-phase pilot procedure, and the bootstrap
// coverage-calibration study of Figure 3.
package sampling

import (
	"errors"
	"fmt"
	"math"

	"nodevar/internal/stats"
)

// Plan specifies a desired estimation accuracy for mean per-node power.
type Plan struct {
	// Confidence is the two-sided confidence level 1-α, e.g. 0.95.
	Confidence float64
	// Accuracy is λ: the target relative half-width of the interval,
	// e.g. 0.01 for "within 1% of the true mean".
	Accuracy float64
	// CV is the anticipated coefficient of variation σ/μ of per-node
	// power; the paper observes 0.015-0.03 across systems.
	CV float64
	// Population is the total node count N; 0 means infinite (skip the
	// finite population correction). A population of exactly 1 is
	// rejected by Validate: every recommendation this package makes needs
	// at least 2 observations for a variance estimate, and a 1-node
	// machine cannot supply them.
	Population int
}

// Validate checks the plan.
func (p Plan) Validate() error {
	switch {
	case !(p.Confidence > 0 && p.Confidence < 1):
		return fmt.Errorf("sampling: confidence %v outside (0, 1)", p.Confidence)
	case !(p.Accuracy > 0): // NaN fails too
		return errors.New("sampling: accuracy must be positive")
	case !(p.CV > 0):
		return errors.New("sampling: CV must be positive")
	case p.Population < 0:
		return errors.New("sampling: population must be non-negative")
	case p.Population == 1:
		return errors.New("sampling: population of 1 cannot support the 2-observation minimum a variance estimate needs")
	}
	return nil
}

// BaseSampleSize returns n₀ of Equation 5: the (real-valued) required
// sample size for an infinite population,
// n₀ = (z_{1-α/2}/λ · σ/μ)².
func (p Plan) BaseSampleSize() (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	z := stats.ZQuantile(1 - (1-p.Confidence)/2)
	v := z / p.Accuracy * p.CV
	return v * v, nil
}

// RequiredSampleSize returns the recommended node count per Equation 5:
// n₀ corrected for the finite population and rounded up. The result is
// clamped to at least 2 (a standard deviation needs two observations) and
// to the population size when one is given; because Validate rejects a
// population of 1, the two clamps can never contradict each other and
// the ≥2 invariant holds unconditionally.
func (p Plan) RequiredSampleSize() (int, error) {
	n0, err := p.BaseSampleSize()
	if err != nil {
		return 0, err
	}
	n := n0
	if N := float64(p.Population); p.Population > 0 {
		n = n0 * N / (n0 + N - 1)
	}
	out := int(math.Ceil(n - 1e-9))
	if out < 2 {
		out = 2
	}
	if p.Population > 0 && out > p.Population {
		out = p.Population
	}
	return out, nil
}

// ExpectedAccuracy inverts the formula: the relative half-width λ
// achieved with a sample of n nodes under this plan's confidence and CV,
// using the exact t quantile (Equation 1) and the finite population
// correction when a population is set. Sampling the whole population
// (n == N) yields exactly 0: the census has no extrapolation error. A
// sample larger than the population is an error, mirroring the n > N
// rejection in stats.MeanCIFromStats so the two layers agree.
func (p Plan) ExpectedAccuracy(n int) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if n < 2 {
		return 0, errors.New("sampling: ExpectedAccuracy needs n >= 2")
	}
	if p.Population > 0 && n > p.Population {
		return 0, fmt.Errorf("sampling: sample of %d exceeds population of %d", n, p.Population)
	}
	q := stats.TQuantile(n-1, 1-(1-p.Confidence)/2)
	acc := q * p.CV / math.Sqrt(float64(n))
	if N := p.Population; N > 0 {
		// Validate guarantees N >= 2 here, so the correction is well
		// defined and reaches 0 exactly at n == N.
		acc *= math.Sqrt(float64(N-n) / float64(N-1))
	}
	return acc, nil
}

// Level1Nodes returns the old Green500 Level 1 subset rule: at least 1/64
// of the compute nodes (the 2 kW floor is power-dependent and handled by
// the methodology package). It panics if totalNodes <= 0.
func Level1Nodes(totalNodes int) int {
	if totalNodes <= 0 {
		panic("sampling: totalNodes must be positive")
	}
	n := (totalNodes + 63) / 64
	if n < 1 {
		n = 1
	}
	return n
}

// RevisedRuleNodes returns the paper's recommended replacement rule
// (Section 6): measure at least 16 nodes or 10% of the system, whichever
// is larger (capped at the system size).
func RevisedRuleNodes(totalNodes int) int {
	if totalNodes <= 0 {
		panic("sampling: totalNodes must be positive")
	}
	n := 16
	if tenth := (totalNodes + 9) / 10; tenth > n {
		n = tenth
	}
	if n > totalNodes {
		n = totalNodes
	}
	return n
}

// Table is a grid of recommended sample sizes: one row per accuracy λ,
// one column per CV, as in Table 5 of the paper.
type Table struct {
	Accuracies []float64
	CVs        []float64
	Population int
	Confidence float64
	// N[i][j] is the recommendation for Accuracies[i] and CVs[j].
	N [][]int
}

// BuildTable computes the recommendation grid.
func BuildTable(accuracies, cvs []float64, population int, confidence float64) (*Table, error) {
	if len(accuracies) == 0 || len(cvs) == 0 {
		return nil, errors.New("sampling: empty table axes")
	}
	t := &Table{
		Accuracies: accuracies,
		CVs:        cvs,
		Population: population,
		Confidence: confidence,
		N:          make([][]int, len(accuracies)),
	}
	for i, lam := range accuracies {
		t.N[i] = make([]int, len(cvs))
		for j, cv := range cvs {
			n, err := Plan{
				Confidence: confidence,
				Accuracy:   lam,
				CV:         cv,
				Population: population,
			}.RequiredSampleSize()
			if err != nil {
				return nil, err
			}
			t.N[i][j] = n
		}
	}
	return t, nil
}

// PaperTable5 reproduces Table 5 exactly: N = 10000, 95% confidence,
// λ ∈ {0.5%, 1%, 1.5%, 2%}, σ/μ ∈ {0.02, 0.03, 0.05}.
func PaperTable5() *Table {
	t, err := BuildTable(
		[]float64{0.005, 0.01, 0.015, 0.02},
		[]float64{0.02, 0.03, 0.05},
		10000, 0.95,
	)
	if err != nil {
		// Unreachable: constants are valid.
		panic(err)
	}
	return t
}

// TwoPhase implements the pilot procedure of Section 4.2: estimate σ/μ
// from a small pilot sample of per-node powers, then size the final
// sample. It returns the recommended final sample size.
func TwoPhase(pilot []float64, confidence, accuracy float64, population int) (int, error) {
	if len(pilot) < 2 {
		return 0, errors.New("sampling: pilot needs at least 2 observations")
	}
	mean, sd := stats.MeanStdDev(pilot)
	if mean <= 0 {
		return 0, errors.New("sampling: pilot mean must be positive")
	}
	return Plan{
		Confidence: confidence,
		Accuracy:   accuracy,
		CV:         sd / mean,
		Population: population,
	}.RequiredSampleSize()
}
