package chaostest

import (
	"math"
	"strings"
	"testing"

	"nodevar/internal/faults"
)

// chaosSeeds are the seeds every invariant replays: 1..8 plus the
// Fibonacci tail {13, 21, 34}.
var chaosSeeds = []uint64{1, 2, 3, 4, 5, 6, 7, 8, 13, 21, 34}

// chaosCases are the (schedule, seed) pairs the fault invariants check:
// each seed under the all-classes-on reference schedule (drop, stuck,
// glitch, jitter, node dropout), with and without 5 W re-quantization.
func chaosCases() []faults.Schedule {
	var out []faults.Schedule
	for _, seed := range chaosSeeds {
		s := faults.Schedule{
			Seed:           seed,
			SampleDropRate: 0.02,
			StuckRate:      0.01,
			GlitchRate:     0.01,
			ClockJitter:    0.1,
			NodeDropRate:   0.15,
		}
		out = append(out, s)
		s.QuantizeWatts = 5
		out = append(out, s)
	}
	return out
}

// Invariant 1: the no-fault path is bit-identical to the healthy path.
func TestInvariantZeroScheduleBitIdentical(t *testing.T) {
	for _, seed := range chaosSeeds {
		out, err := Run(faults.Schedule{Seed: seed})
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
	for _, sched := range chaosCases() {
		a, err := Run(sched)
		if err != nil {
			t.Fatalf("%s: %v", sched, err)
		}
		b, err := Run(sched)
		if err != nil {
			t.Fatalf("%s replay: %v", sched, err)
		}
		if a.Text() != b.Text() {
			t.Errorf("%s: replay diverged:\n--- first\n%s--- second\n%s",
				sched, a.Text(), b.Text())
		}
		if a.DegradedAvg != b.DegradedAvg || a.HealthyAvg != b.HealthyAvg {
			t.Errorf("%s: replay averages differ", sched)
		}
	}
}

// Invariant 3: runs that lost data are flagged, with completeness, all
// the way up to the methodology assessment.
func TestInvariantDegradedRunsFlagged(t *testing.T) {
	cases := chaosCases()
	flagged := 0
	for _, sched := range cases {
		out, err := Run(sched)
		if err != nil {
			t.Fatalf("%s: %v", sched, err)
		}
		if !out.Report.Injected() {
			// Statistically possible for one seed; the loop-level check
			// below catches a systematically quiet injector.
			continue
		}
		flagged++
		if !out.Degraded {
			t.Errorf("%s: faults landed but outcome not degraded:\n%s", sched, out.Report)
		}
		if !out.Assessment.Degraded {
			t.Errorf("%s: degraded run, clean assessment: %s", sched, out.Assessment)
		}
		if !strings.Contains(out.Assessment.String(), "DEGRADED") {
			t.Errorf("%s: assessment hides degradation: %s", sched, out.Assessment)
		}
		if out.Completeness >= 1 || out.Completeness <= 0 {
			t.Errorf("%s: implausible completeness %v", sched, out.Completeness)
		}
	}
	if flagged < len(cases)-1 {
		t.Errorf("only %d of %d chaos cases injected anything", flagged, len(cases))
	}
}

// Invariant 4: never a silent wrong answer — whenever the degraded
// estimate differs from the healthy one, the outcome says so, and the
// estimate stays finite and physically sane.
func TestInvariantNoSilentWrongAnswer(t *testing.T) {
	for _, sched := range chaosCases() {
		out, err := Run(sched)
		if err != nil {
			t.Fatalf("%s: %v", sched, err)
		}
		if out.DegradedAvg != out.HealthyAvg && !out.Degraded {
			t.Errorf("%s: answer changed (%v vs %v) with no degradation flag",
				sched, out.DegradedAvg, out.HealthyAvg)
		}
		d := float64(out.DegradedAvg)
		if math.IsNaN(d) || math.IsInf(d, 0) || d <= 0 {
			t.Errorf("%s: degraded estimate %v is not a usable number", sched, d)
		}
		// Sanitization plus gap tolerance must keep the estimate in the
		// right ballpark even under the full fault barrage: spikes are
		// rare and bounded, so anything beyond 2x is a pipeline bug, not
		// an injected artifact.
		if h := float64(out.HealthyAvg); d < h/2 || d > h*2 {
			t.Errorf("%s: degraded estimate %v wildly off healthy %v", sched, d, h)
		}
	}
}
