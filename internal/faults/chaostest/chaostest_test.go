package chaostest

import (
	"math"
	"strings"
	"testing"

	"nodevar/internal/faults"
)

// chaosSeeds are the 8 seeds the CI chaos job replays.
var chaosSeeds = []uint64{1, 2, 3, 5, 8, 13, 21, 34}

// chaosSchedule is the reference all-classes-on schedule.
func chaosSchedule(seed uint64) faults.Schedule {
	return faults.Schedule{
		Seed:           seed,
		SampleDropRate: 0.02,
		StuckRate:      0.01,
		GlitchRate:     0.01,
		QuantizeWatts:  5,
		ClockJitter:    0.1,
		NodeDropRate:   0.15,
	}
}

// Invariant 1: the no-fault path is bit-identical to the healthy path.
func TestInvariantZeroScheduleBitIdentical(t *testing.T) {
	for _, seed := range chaosSeeds {
		out, err := Run(Scenario{Schedule: faults.Schedule{Seed: seed}})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if out.DegradedAvg != out.HealthyAvg {
			t.Errorf("seed %d: degraded pipeline drifted without faults: %v vs %v",
				seed, out.DegradedAvg, out.HealthyAvg)
		}
		if out.Degraded || out.Completeness != 1 {
			t.Errorf("seed %d: clean run flagged degraded: %+v", seed, out)
		}
		if out.Assessment.Degraded {
			t.Errorf("seed %d: clean assessment flagged: %s", seed, out.Assessment)
		}
		if out.Report.Injected() {
			t.Errorf("seed %d: zero schedule injected faults:\n%s", seed, out.Report)
		}
	}
}

// Invariant 2: a scenario replays byte-identically from its seed.
func TestInvariantSeededReplayIdentical(t *testing.T) {
	for _, seed := range chaosSeeds {
		sc := Scenario{Schedule: chaosSchedule(seed)}
		a, err := Run(sc)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, err := Run(sc)
		if err != nil {
			t.Fatalf("seed %d replay: %v", seed, err)
		}
		if a.Text() != b.Text() {
			t.Errorf("seed %d: replay diverged:\n--- first\n%s--- second\n%s",
				seed, a.Text(), b.Text())
		}
		if a.DegradedAvg != b.DegradedAvg || a.HealthyAvg != b.HealthyAvg {
			t.Errorf("seed %d: replay averages differ", seed)
		}
	}
}

// Invariant 3: runs that lost data are flagged, with completeness, all
// the way up to the methodology assessment.
func TestInvariantDegradedRunsFlagged(t *testing.T) {
	flagged := 0
	for _, seed := range chaosSeeds {
		out, err := Run(Scenario{Schedule: chaosSchedule(seed)})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !out.Report.Injected() {
			// Statistically possible for one seed; the loop-level check
			// below catches a systematically quiet injector.
			continue
		}
		flagged++
		if !out.Degraded {
			t.Errorf("seed %d: faults landed but outcome not degraded:\n%s", seed, out.Report)
		}
		if !out.Assessment.Degraded {
			t.Errorf("seed %d: degraded run, clean assessment: %s", seed, out.Assessment)
		}
		if !strings.Contains(out.Assessment.String(), "DEGRADED") {
			t.Errorf("seed %d: assessment hides degradation: %s", seed, out.Assessment)
		}
		if out.Completeness >= 1 || out.Completeness <= 0 {
			t.Errorf("seed %d: implausible completeness %v", seed, out.Completeness)
		}
	}
	if flagged < len(chaosSeeds)-1 {
		t.Errorf("only %d of %d chaos seeds injected anything", flagged, len(chaosSeeds))
	}
}

// Invariant 4: never a silent wrong answer — whenever the degraded
// estimate differs from the healthy one, the outcome says so, and the
// estimate stays finite and physically sane.
func TestInvariantNoSilentWrongAnswer(t *testing.T) {
	for _, seed := range chaosSeeds {
		out, err := Run(Scenario{Schedule: chaosSchedule(seed)})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if out.DegradedAvg != out.HealthyAvg && !out.Degraded {
			t.Errorf("seed %d: answer changed (%v vs %v) with no degradation flag",
				seed, out.DegradedAvg, out.HealthyAvg)
		}
		d := float64(out.DegradedAvg)
		if math.IsNaN(d) || math.IsInf(d, 0) || d <= 0 {
			t.Errorf("seed %d: degraded estimate %v is not a usable number", seed, d)
		}
		// Sanitization plus gap tolerance must keep the estimate in the
		// right ballpark even under the full fault barrage: spikes are
		// rare and bounded, so anything beyond 2x is a pipeline bug, not
		// an injected artifact.
		if h := float64(out.HealthyAvg); d < h/2 || d > h*2 {
			t.Errorf("seed %d: degraded estimate %v wildly off healthy %v", seed, d, h)
		}
	}
}
