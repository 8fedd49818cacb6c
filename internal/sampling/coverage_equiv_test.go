package sampling

import (
	"context"
	"errors"
	"math"
	"testing"

	"nodevar/internal/checkpoint"
	"nodevar/internal/rng"
	"nodevar/internal/stats"
)

// materializedCoverage is a literal, sequential transcription of the v1
// coverage loop: resample a full Population-sized machine per replicate,
// draw subsets by partial Fisher-Yates, accumulate hits and widths. It
// is the distributional reference the count-based rewrite must match.
func materializedCoverage(cfg CoverageConfig) []CoveragePoint {
	nSizes, nLevels := len(cfg.SampleSizes), len(cfg.Levels)
	crit := make([][]float64, nSizes)
	for ni, n := range cfg.SampleSizes {
		crit[ni] = make([]float64, nLevels)
		for li, lv := range cfg.Levels {
			crit[ni][li] = stats.TQuantile(n-1, 1-(1-lv)/2)
		}
	}
	r := rng.New(cfg.Seed)
	machine := make([]float64, cfg.Population)
	hits := make([]int64, nSizes*nLevels)
	widths := make([]float64, nSizes*nLevels)
	for rep := 0; rep < cfg.Replicates; rep++ {
		var sum float64
		for i := range machine {
			v := cfg.Pilot[r.Intn(len(cfg.Pilot))]
			machine[i] = v
			sum += v
		}
		trueMean := sum / float64(cfg.Population)
		for ni, n := range cfg.SampleSizes {
			var acc stats.Accumulator
			for i := 0; i < n; i++ {
				j := i + r.Intn(cfg.Population-i)
				machine[i], machine[j] = machine[j], machine[i]
				acc.Add(machine[i])
			}
			mean := acc.Mean()
			se := acc.StdDev() / math.Sqrt(float64(n))
			for li, cv := range crit[ni] {
				half := cv * se
				if mean-half <= trueMean && trueMean <= mean+half {
					hits[ni*nLevels+li]++
				}
				if mean != 0 {
					widths[ni*nLevels+li] += half / math.Abs(mean)
				}
			}
		}
	}
	points := make([]CoveragePoint, 0, nSizes*nLevels)
	for ni, n := range cfg.SampleSizes {
		for li, lv := range cfg.Levels {
			points = append(points, CoveragePoint{
				SampleSize:   n,
				Level:        lv,
				Coverage:     float64(hits[ni*nLevels+li]) / float64(cfg.Replicates),
				MeanRelWidth: widths[ni*nLevels+li] / float64(cfg.Replicates),
				Replicates:   cfg.Replicates,
			})
		}
	}
	return points
}

// TestCoverageStudyMatchesMaterializedReference sweeps seeds and checks
// that the count-based study and the materialized v1 reference estimate
// the same coverage and relative width to within Monte-Carlo tolerance:
// the rewrite changed the replicate streams, not the distribution.
func TestCoverageStudyMatchesMaterializedReference(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo comparison")
	}
	base := defaultCoverageConfig()
	base.SampleSizes = []int{5, 20}
	base.Levels = []float64{0.80, 0.95}
	base.Replicates = 4000
	for _, seed := range []uint64{1, 17, 400} {
		cfg := base
		cfg.Seed = seed
		got, err := CoverageStudy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := materializedCoverage(cfg)
		for i, p := range got {
			q := want[i]
			// Each estimate has sd sqrt(p(1-p)/R); the difference of the
			// two independent estimates gets sqrt(2) of that. 5 sigma over
			// 12 comparisons keeps false failures out of CI.
			sd := math.Sqrt(2 * q.Level * (1 - q.Level) / float64(cfg.Replicates))
			if d := math.Abs(p.Coverage - q.Coverage); d > 5*sd {
				t.Errorf("seed %d (n=%d, level=%v): coverage %v vs reference %v (|d|=%v > %v)",
					seed, p.SampleSize, p.Level, p.Coverage, q.Coverage, d, 5*sd)
			}
			if q.MeanRelWidth == 0 {
				t.Fatalf("reference relative width is zero at %+v", q)
			}
			if rel := math.Abs(p.MeanRelWidth-q.MeanRelWidth) / q.MeanRelWidth; rel > 0.05 {
				t.Errorf("seed %d (n=%d, level=%v): rel width %v vs reference %v (rel err %v)",
					seed, p.SampleSize, p.Level, p.MeanRelWidth, q.MeanRelWidth, rel)
			}
		}
	}
}

// TestCoverageStudyRejectsStaleV1Checkpoint pins the fail-fast contract
// of the kind bumps: a checkpoint written by the v1 stream (materialized
// machines), the v2 stream (multinomial splits at k/2) or the v3 stream
// (every power-of-two segment split down to single cells) must not
// silently resume into the current stream.
func TestCoverageStudyRejectsStaleV1Checkpoint(t *testing.T) {
	cfg := defaultCoverageConfig()
	cfg.Replicates = 400
	cfg.Chunks = 4
	prog := coverageProgress{Chunks: 4}
	for _, kind := range []string{"sampling/coverage-study/v1", "sampling/coverage-study/v2", "sampling/coverage-study/v3"} {
		env, err := checkpoint.Encode(kind, cfg.Seed, cfg.Fingerprint(), prog)
		if err != nil {
			t.Fatal(err)
		}
		cfg.ResumeData = env
		_, err = CoverageStudyCtx(context.Background(), cfg)
		if !errors.Is(err, checkpoint.ErrMismatch) {
			t.Errorf("resume from %s checkpoint: err = %v, want checkpoint.ErrMismatch", kind, err)
		}
	}
}

// TestCoverageStudyReplicateAllocsAmortized checks the headline
// allocation property of the rewrite: adding replicates adds no
// allocations, because the per-replicate loop runs entirely on pooled
// scratch (no Population-sized machine buffer).
func TestCoverageStudyReplicateAllocsAmortized(t *testing.T) {
	base := defaultCoverageConfig()
	base.Chunks = 1
	base.Replicates = 200
	big := base
	big.Replicates = 2200
	run := func(cfg CoverageConfig) func() {
		return func() {
			if _, err := CoverageStudy(cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(base)() // warm the scratch pool
	small := testing.AllocsPerRun(5, run(base))
	large := testing.AllocsPerRun(5, run(big))
	perReplicate := (large - small) / float64(big.Replicates-base.Replicates)
	// GC between measurements can evict the pooled scratch and force a
	// single refill; anything beyond that means a per-replicate alloc
	// crept back in.
	if perReplicate > 0.05 {
		t.Errorf("%.3f allocs per replicate (small=%v, large=%v), want ~0",
			perReplicate, small, large)
	}
}
