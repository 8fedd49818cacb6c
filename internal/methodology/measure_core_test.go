package methodology

import (
	"math"
	"testing"

	"nodevar/internal/power"
)

// phasedTarget builds a target whose trace includes setup (low power) and
// teardown around a flat core phase.
func phasedTarget(t *testing.T) Target {
	t.Helper()
	var system []power.Sample
	node := make([][]power.Sample, 8)
	for k := 0; k <= 1000; k++ {
		tt := float64(k)
		per := 50.0 // setup/teardown idle
		if tt >= 200 && tt <= 800 {
			per = 400 // core phase
		}
		var total float64
		for i := range node {
			node[i] = append(node[i], power.Sample{Time: tt, Power: power.Watts(per)})
			total += per
		}
		system = append(system, power.Sample{Time: tt, Power: power.Watts(total)})
	}
	sys, err := power.NewTrace(system)
	if err != nil {
		t.Fatal(err)
	}
	nodeTraces := make([]*power.Trace, len(node))
	for i := range node {
		tr, err := power.NewTrace(node[i])
		if err != nil {
			t.Fatal(err)
		}
		nodeTraces[i] = tr
	}
	return Target{
		Name:        "phased",
		TotalNodes:  8,
		System:      sys,
		SubsetTrace: summedNodeTraces(func(i int) *power.Trace { return nodeTraces[i] }),
		CoreLo:      200,
		CoreHi:      800,
	}
}

func TestTrueAverageUsesCoreWindow(t *testing.T) {
	target := phasedTarget(t)
	truth, err := TrueAverage(target)
	if err != nil {
		t.Fatal(err)
	}
	// Core phase only: 8 × 400 = 3200 W, not dragged down by setup.
	if math.Abs(float64(truth)-3200) > 1 {
		t.Errorf("core truth = %v, want 3200", truth)
	}
}

func TestMeasureRespectsCoreWindow(t *testing.T) {
	target := phasedTarget(t)
	// Level 3 over the core phase is exact and ignores setup/teardown.
	m, err := Measure(target, MustLevelSpec(Level3), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.WindowLo != 200 || m.WindowHi != 800 {
		t.Errorf("L3 window = [%v, %v], want core phase", m.WindowLo, m.WindowHi)
	}
	rel, err := m.RelativeError(target)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rel) > 1e-9 {
		t.Errorf("L3 error = %v", rel)
	}
	// Level 1 window must land inside the middle 80% of the CORE phase,
	// i.e. within [260, 740].
	for seed := uint64(0); seed < 10; seed++ {
		m, err := Measure(target, MustLevelSpec(Level1), Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if m.WindowLo < 260-1e-6 || m.WindowHi > 740+1e-6 {
			t.Fatalf("L1 window [%v, %v] outside middle 80%% of core", m.WindowLo, m.WindowHi)
		}
	}
}

func TestValidateCoreWindow(t *testing.T) {
	target := phasedTarget(t)
	target.CoreLo, target.CoreHi = 800, 200
	if err := target.Validate(); err == nil {
		t.Error("inverted core window accepted")
	}
	target.CoreLo, target.CoreHi = 200, 2000
	if err := target.Validate(); err == nil {
		t.Error("core window beyond trace accepted")
	}
}
