package methodology

import (
	"math"
	"testing"
	"testing/quick"

	"nodevar/internal/power"
	"nodevar/internal/rng"
)

// Property: Level 3 with a reference instrument reproduces the true
// average exactly, for any synthetic target.
func TestQuickLevel3Exact(t *testing.T) {
	f := func(nRaw, baseRaw, spreadRaw uint8) bool {
		n := 2 + int(nRaw%30)
		base := 100 + float64(baseRaw)
		spread := float64(spreadRaw%50) / 100
		target := syntheticTarget(t, n, 300, base, spread, nil)
		m, err := Measure(target, MustLevelSpec(Level3), Options{Seed: uint64(nRaw)})
		if err != nil {
			return false
		}
		rel, err := m.RelativeError(target)
		if err != nil {
			return false
		}
		return math.Abs(rel) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: the reported system power is exactly the subset average
// scaled by N/n (the methodology's linear extrapolation).
func TestQuickLinearExtrapolation(t *testing.T) {
	target := syntheticTarget(t, 128, 600, 300, 0.1, nil)
	f := func(seed uint16) bool {
		m, err := Measure(target, MustLevelSpec(Level1), Options{Seed: uint64(seed)})
		if err != nil {
			return false
		}
		want := float64(m.SubsetAvg) * 128 / float64(m.NodesUsed)
		return math.Abs(float64(m.SystemPower)-want) < 1e-9*want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: for any placement, a Level 1 window lies within the middle
// 80% of the core phase and has the spec's length.
func TestQuickWindowWithinMiddle80(t *testing.T) {
	const dur = 5400
	target := syntheticTarget(t, 16, dur, 300, 0.05, decliningShape(dur))
	spec := MustLevelSpec(Level1)
	wantLen := spec.WindowLength(dur)
	placements := []WindowPlacement{PlaceRandom, PlaceEarliest, PlaceLatest, PlaceCenter, PlaceBest}
	f := func(seed uint16, pRaw uint8) bool {
		p := placements[int(pRaw)%len(placements)]
		m, err := Measure(target, spec, Options{Seed: uint64(seed), Placement: p})
		if err != nil {
			return false
		}
		if math.Abs((m.WindowHi-m.WindowLo)-wantLen) > 1e-6 {
			return false
		}
		return m.WindowLo >= 0.1*dur-1e-6 && m.WindowHi <= 0.9*dur+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: gaming can never make the best window exceed the worst
// window; the gamed value is a lower bound over placements.
func TestQuickBestPlacementIsMinimal(t *testing.T) {
	const dur = 5400
	target := syntheticTarget(t, 16, dur, 300, 0.05, decliningShape(dur))
	spec := MustLevelSpec(Level1)
	best, err := Measure(target, spec, Options{Placement: PlaceBest, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed uint16) bool {
		m, err := Measure(target, spec, Options{Placement: PlaceRandom, Seed: uint64(seed)})
		if err != nil {
			return false
		}
		// Identical subsets are not guaranteed; compare subset-average
		// normalized to per-node power to remove subset composition noise
		// up to the node spread (5%), with slack.
		return float64(m.SystemPower) > float64(best.SystemPower)*0.97
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// bestWindowSearch is BestWindow as it scanned before the walking reader:
// one Trace.AverageBetween, two binary searches, per candidate.
func bestWindowSearch(tr *power.Trace, regionLo, regionHi, length float64, steps int) (float64, error) {
	span := regionHi - length - regionLo
	stride := span / float64(steps-1)
	bestLo := regionLo
	bestAvg, err := tr.AverageBetween(regionLo, regionLo+length)
	if err != nil || span <= 0 {
		return bestLo, err
	}
	for i := 1; i < steps; i++ {
		lo := regionLo + float64(i)*stride
		avg, err := tr.AverageBetween(lo, lo+length)
		if err != nil {
			return 0, err
		}
		if avg < bestAvg {
			bestAvg, bestLo = avg, lo
		}
	}
	return bestLo, nil
}

// TestBestWindowMatchesSearchScan checks the walking scan against the
// binary-search scan on seeded random traces, plateaus included so ties
// must break the same way: the same best start, or the same error.
func TestBestWindowMatchesSearchScan(t *testing.T) {
	r := rng.New(1915)
	for trial := 0; trial < 60; trial++ {
		n := 2 + r.Intn(3000)
		samples := make([]power.Sample, n)
		x := 1000 * r.Float64()
		for i := range samples {
			p := 1000 + 500*r.Float64()
			if trial%3 == 0 {
				p = 1000 + 100*float64(r.Intn(3)) // plateaus and exact ties
			}
			samples[i] = power.Sample{Time: x, Power: power.Watts(p)}
			x += 0.01 + 3*r.Float64()
		}
		tr, err := power.NewTrace(samples)
		if err != nil {
			t.Fatal(err)
		}
		start, span := tr.Start(), tr.Duration()
		regionLo := start + 0.2*span*r.Float64()
		regionHi := tr.End() - 0.2*span*r.Float64()
		if trial%10 == 9 {
			regionHi = tr.End() + 1 // windows run past the span
		}
		length := (regionHi - regionLo) * r.Float64()
		steps := []int{2, 17, maxSearchSteps}[trial%3]
		want, wantErr := bestWindowSearch(tr, regionLo, regionHi, length, steps)
		got, gotErr := BestWindow(tr, regionLo, regionHi, length, steps)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("trial %d: error %v, want %v", trial, gotErr, wantErr)
		}
		if got != want {
			t.Fatalf("trial %d: best start %v, binary-search scan %v", trial, got, want)
		}
	}
}
