package methodology

import (
	"math"
	"testing"

	"nodevar/internal/meter"
	"nodevar/internal/power"
)

// syntheticTarget builds a target of n nodes sampled each second over
// duration; node i draws base*(1 + spread*i/n)*shape(t) watts.
func syntheticTarget(t *testing.T, n int, duration, base, spread float64, shape func(t float64) float64) Target {
	t.Helper()
	if shape == nil {
		shape = func(float64) float64 { return 1 }
	}
	nodeTraces := make([]*power.Trace, n)
	var systemSamples []power.Sample
	steps := int(duration) + 1
	scales := make([]float64, n)
	for i := range scales {
		scales[i] = base * (1 + spread*float64(i)/float64(n))
	}
	nodeSamples := make([][]power.Sample, n)
	for i := range nodeSamples {
		nodeSamples[i] = make([]power.Sample, 0, steps)
	}
	for k := 0; k < steps; k++ {
		tt := float64(k)
		sh := shape(tt)
		var total float64
		for i := 0; i < n; i++ {
			p := scales[i] * sh
			nodeSamples[i] = append(nodeSamples[i], power.Sample{Time: tt, Power: power.Watts(p)})
			total += p
		}
		systemSamples = append(systemSamples, power.Sample{Time: tt, Power: power.Watts(total)})
	}
	for i := range nodeTraces {
		tr, err := power.NewTrace(nodeSamples[i])
		if err != nil {
			t.Fatal(err)
		}
		nodeTraces[i] = tr
	}
	sys, err := power.NewTrace(systemSamples)
	if err != nil {
		t.Fatal(err)
	}
	return Target{
		Name:        "synthetic",
		TotalNodes:  n,
		System:      sys,
		SubsetTrace: summedNodeTraces(func(i int) *power.Trace { return nodeTraces[i] }),
		PerfGFlops:  100000,
	}
}

func TestLevelSpecTable1(t *testing.T) {
	l1 := MustLevelSpec(Level1)
	if l1.SamplePeriod != 1 || l1.Timing != WindowInMiddle80 ||
		l1.MinNodeFraction != 1.0/64 || l1.MinMeasuredWatts != 2000 {
		t.Errorf("Level 1 spec = %+v", l1)
	}
	l2 := MustLevelSpec(Level2)
	if l2.Timing != FullRun || l2.MinNodeFraction != 1.0/8 || l2.MinMeasuredWatts != 10000 {
		t.Errorf("Level 2 spec = %+v", l2)
	}
	l3 := MustLevelSpec(Level3)
	if !l3.WholeSystem || l3.SamplePeriod != 0 || l3.Timing != FullRun {
		t.Errorf("Level 3 spec = %+v", l3)
	}
	if _, err := LevelSpec(Level(9)); err == nil {
		t.Error("unknown level accepted")
	}
	if Level1.String() != "Level 1" || Level3.String() != "Level 3" {
		t.Error("level names")
	}
}

func TestRevisedLevel1Rule(t *testing.T) {
	r := RevisedLevel1()
	if r.Timing != FullRun {
		t.Error("revised rule must require the full core phase")
	}
	if r.MinNodes != 16 || r.MinNodeFraction != 0.1 {
		t.Errorf("revised node rule = %+v", r)
	}
}

func TestRequiredNodes(t *testing.T) {
	l1 := MustLevelSpec(Level1)
	// 640 nodes at 500 W: 1/64 → 10; 2 kW floor → 4; max is 10.
	if n, err := l1.RequiredNodes(640, 500); err != nil || n != 10 {
		t.Errorf("L1 640@500 = %d, %v", n, err)
	}
	// Low-power nodes: 2 kW floor dominates (2000/90.74 → 23 > 1/64 of 640).
	if n, err := l1.RequiredNodes(640, 90.74); err != nil || n != 23 {
		t.Errorf("L1 640@90.74 = %d, %v", n, err)
	}
	l2 := MustLevelSpec(Level2)
	if n, err := l2.RequiredNodes(640, 500); err != nil || n != 80 {
		t.Errorf("L2 = %d, %v", n, err)
	}
	l3 := MustLevelSpec(Level3)
	if n, err := l3.RequiredNodes(640, 500); err != nil || n != 640 {
		t.Errorf("L3 = %d, %v", n, err)
	}
	rev := RevisedLevel1()
	if n, err := rev.RequiredNodes(100, 500); err != nil || n != 16 {
		t.Errorf("revised small system = %d, %v", n, err)
	}
	if n, err := rev.RequiredNodes(1000, 500); err != nil || n != 100 {
		t.Errorf("revised large system = %d, %v", n, err)
	}
	// Floors never exceed the system.
	if n, err := l1.RequiredNodes(3, 100); err != nil || n != 3 {
		t.Errorf("capped = %d, %v", n, err)
	}
	if _, err := l1.RequiredNodes(0, 100); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := l1.RequiredNodes(10, 0); err == nil {
		t.Error("zero node watts accepted")
	}
}

func TestWindowLength(t *testing.T) {
	l1 := MustLevelSpec(Level1)
	// 1 h core: 20% of middle 80% = 576 s > 1 min.
	if got := l1.WindowLength(3600); math.Abs(got-576) > 1e-9 {
		t.Errorf("1h window = %v", got)
	}
	// Short run: one-minute floor.
	if got := l1.WindowLength(120); got != 60 {
		t.Errorf("2min window = %v", got)
	}
	// Very short run: floor capped to the middle-80% span.
	if got := l1.WindowLength(50); math.Abs(got-40) > 1e-9 {
		t.Errorf("50s window = %v", got)
	}
	l3 := MustLevelSpec(Level3)
	if got := l3.WindowLength(3600); got != 3600 {
		t.Errorf("L3 window = %v", got)
	}
}

func TestMeasureFlatSystemAccurate(t *testing.T) {
	target := syntheticTarget(t, 128, 3600, 500, 0.05, nil)
	truth, err := TrueAverage(target)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []Spec{MustLevelSpec(Level1), MustLevelSpec(Level2), MustLevelSpec(Level3), RevisedLevel1()} {
		m, err := Measure(target, spec, Options{Seed: 1})
		if err != nil {
			t.Fatalf("%v: %v", spec.Level, err)
		}
		rel, err := m.RelativeError(target)
		if err != nil {
			t.Fatal(err)
		}
		// Flat workload: even Level 1 should be within the subset
		// sampling error (~ spread/sqrt(n)).
		if math.Abs(rel) > 0.02 {
			t.Errorf("%v relative error = %v (truth %v, got %v)",
				spec.Level, rel, truth, m.SystemPower)
		}
		if m.Efficiency <= 0 {
			t.Errorf("%v: efficiency not computed", spec.Level)
		}
	}
}

func TestMeasureLevel3IsExact(t *testing.T) {
	target := syntheticTarget(t, 16, 600, 400, 0.1, nil)
	m, err := Measure(target, MustLevelSpec(Level3), Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := m.RelativeError(target)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rel) > 1e-9 {
		t.Errorf("Level 3 with reference meter should be exact, rel = %v", rel)
	}
	if m.NodesUsed != 16 {
		t.Errorf("Level 3 nodes used = %d", m.NodesUsed)
	}
}

// decliningShape mimics a GPU HPL tail: flat then decaying to 60%.
func decliningShape(dur float64) func(float64) float64 {
	return func(t float64) float64 {
		frac := t / dur
		if frac < 0.5 {
			return 1
		}
		return 1 - 0.8*(frac-0.5)
	}
}

func TestWindowPlacementMatters(t *testing.T) {
	const dur = 5400
	target := syntheticTarget(t, 64, dur, 300, 0.02, decliningShape(dur))
	spec := MustLevelSpec(Level1)
	get := func(p WindowPlacement) float64 {
		m, err := Measure(target, spec, Options{Placement: p, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		return float64(m.SystemPower)
	}
	early := get(PlaceEarliest)
	late := get(PlaceLatest)
	best := get(PlaceBest)
	if !(early > late) {
		t.Errorf("declining run: early %v should exceed late %v", early, late)
	}
	if best > late+1e-6 {
		t.Errorf("best window %v should not exceed latest %v", best, late)
	}
	// The spread between placements exceeds 15% on this GPU-like profile —
	// the paper's headline Level 1 failure.
	truth, _ := TrueAverage(target)
	if spread := (early - best) / float64(truth); spread < 0.15 {
		t.Errorf("placement spread = %v, expected a large gaming margin", spread)
	}
}

func TestMeasureBiasLowPowerNodes(t *testing.T) {
	target := syntheticTarget(t, 64, 600, 300, 0.2, nil)
	spec := MustLevelSpec(Level1)
	honest, err := Measure(target, spec, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	biased, err := Measure(target, spec, Options{Seed: 5, BiasLowPowerNodes: true})
	if err != nil {
		t.Fatal(err)
	}
	if biased.SystemPower >= honest.SystemPower {
		t.Errorf("biased selection %v not below honest %v", biased.SystemPower, honest.SystemPower)
	}
}

func TestMeasureWithNoisyMeter(t *testing.T) {
	target := syntheticTarget(t, 64, 1800, 450, 0.03, nil)
	m, err := Measure(target, MustLevelSpec(Level2), Options{
		Seed:  7,
		Meter: meter.Spec{GainErrorCV: 0.01, NoiseCV: 0.01, SamplePeriod: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := m.RelativeError(target)
	if err != nil {
		t.Fatal(err)
	}
	// Error bounded by ~3x gain error plus subset effects.
	if math.Abs(rel) > 0.05 {
		t.Errorf("noisy-meter relative error = %v", rel)
	}
}

func TestMeasureRejectsBadTargets(t *testing.T) {
	if _, err := Measure(Target{}, MustLevelSpec(Level1), Options{}); err == nil {
		t.Error("empty target accepted")
	}
	// Subset measurement without node traces.
	target := syntheticTarget(t, 640, 600, 300, 0, nil)
	target.SubsetTrace = nil
	if _, err := Measure(target, MustLevelSpec(Level1), Options{}); err == nil {
		t.Error("subset measurement without node traces accepted")
	}
}

func TestBestWindowFindsMinimum(t *testing.T) {
	// Power dips in [40, 60].
	var samples []power.Sample
	for i := 0; i <= 100; i++ {
		p := 100.0
		if i >= 40 && i < 60 {
			p = 50
		}
		samples = append(samples, power.Sample{Time: float64(i), Power: power.Watts(p)})
	}
	tr, err := power.NewTrace(samples)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := BestWindow(tr, 0, 100, 20, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if lo < 39 || lo > 41 {
		t.Errorf("best window starts at %v, want ~40", lo)
	}
	if _, err := BestWindow(tr, 0, 10, 20, 100); err == nil {
		t.Error("window longer than region accepted")
	}
	if _, err := BestWindow(tr, 0, 100, 0, 100); err == nil {
		t.Error("zero-length window accepted")
	}
}

func TestAnalyzeGamingOnDecliningRun(t *testing.T) {
	const dur = 5400
	target := syntheticTarget(t, 8, dur, 400, 0, decliningShape(dur))
	rep, err := AnalyzeGaming("gpu-like", target.System)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PowerReduction <= 0.05 {
		t.Errorf("gaming reduction = %v, expected substantial", rep.PowerReduction)
	}
	if rep.EfficiencyGain <= 0.05 {
		t.Errorf("efficiency gain = %v", rep.EfficiencyGain)
	}
	if rep.BestWindowAvg >= rep.TrueAvg {
		t.Errorf("best window %v not below true average %v", rep.BestWindowAvg, rep.TrueAvg)
	}
	// On a flat run there is nothing to game.
	flat := syntheticTarget(t, 8, dur, 400, 0, nil)
	repFlat, err := AnalyzeGaming("flat", flat.System)
	if err != nil {
		t.Fatal(err)
	}
	if repFlat.PowerReduction > 0.001 {
		t.Errorf("flat run gaming reduction = %v, want ~0", repFlat.PowerReduction)
	}
}

func TestRevisedRuleKillsWindowGaming(t *testing.T) {
	const dur = 5400
	target := syntheticTarget(t, 64, dur, 300, 0.02, decliningShape(dur))
	// Under the revised rule the window is the full core phase, so even a
	// deliberately "best"-placed measurement matches the truth.
	m, err := Measure(target, RevisedLevel1(), Options{Placement: PlaceBest, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := m.RelativeError(target)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rel) > 0.01 {
		t.Errorf("revised-rule relative error under gaming attempt = %v", rel)
	}
}

func TestOldVsRevisedNodeDelta(t *testing.T) {
	old, rev := OldVsRevisedNodeDelta(210)
	if old != 4 || rev != 21 {
		t.Errorf("210-node rules = (%d, %d), want (4, 21)", old, rev)
	}
}
