package replaytest

import "testing"

// TestBatchEquivalence is the headline equivalence check: 8 seeds, each
// replaying a preset dataset through the streaming fleet in randomized
// batch splits with duplicate re-sends, asserting streaming answers
// match the batch implementations (bit-identical moments and CI and
// sample-size recommendation, bounded-error quantiles). Run under -race
// via `make check`.
func TestBatchEquivalence(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		sc := Scenario{Seed: seed}
		// Vary the shape across seeds: batch-per-sample, whole-round
		// batches, aggressive duplicate pressure.
		switch seed % 4 {
		case 1:
			sc.MaxBatch = 1
		case 2:
			sc.MaxBatch = 7
			sc.DupRate = 0.5
		case 3:
			sc.Nodes = 257
			sc.Rounds = 3
		}
		out, err := Run(sc)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if out.Samples == 0 || out.Recommended < 2 {
			t.Fatalf("seed %d: degenerate outcome %+v", seed, out)
		}
		t.Logf("seed %d: %d samples in %d batches (%d duplicates), rec %d, worst quantile rel err %.2g",
			seed, out.Samples, out.Batches, out.Duplicates, out.Recommended, out.MaxQuantileRelErr)
	}
}

// TestBatchEquivalenceOtherSystems replays the remaining presets so the
// harness is not LRZ-shaped by accident.
func TestBatchEquivalenceOtherSystems(t *testing.T) {
	for _, system := range []string{"titan", "tudresden"} {
		if _, err := Run(Scenario{Seed: 42, System: system, Nodes: 50, Rounds: 4}); err != nil {
			t.Fatalf("%s: %v", system, err)
		}
	}
}
