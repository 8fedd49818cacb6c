package methodology

import (
	"fmt"
	"testing"

	"nodevar/internal/cluster"
	"nodevar/internal/rng"
)

// steadyLoad is a constant-utilization workload for fast-path tests.
type steadyLoad struct{ dur, util float64 }

func (l steadyLoad) CoreDuration() float64       { return l.dur }
func (l steadyLoad) Utilization(float64) float64 { return l.util }

func fastPathTargets(t *testing.T) (slow, fast Target) {
	t.Helper()
	model := cluster.NodeModel{
		IdleWatts:        150,
		DynamicWatts:     250,
		ThermalTau:       120,
		TempRiseIdle:     10,
		TempRiseLoad:     45,
		LeakagePerDegree: 0.001,
		Fan:              cluster.NewAutoFan(15, 120, 30, 70),
		PSU:              cluster.PSUModel{RatedWatts: 800, PeakEff: 0.94, LowLoadEff: 0.8, Knee: 0.3},
	}
	variation := cluster.Variation{IdleCV: 0.01, DynamicCV: 0.025, FanCV: 0.05, OutlierFraction: 0.01}
	c, err := cluster.New("fastpath", 96, model, variation, 22, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cluster.Run(c, steadyLoad{dur: 1200, util: 0.8}, cluster.RunOptions{SamplePeriod: 2})
	if err != nil {
		t.Fatal(err)
	}
	slow = Target{
		Name:       "fastpath",
		TotalNodes: 96,
		System:     res.System,
		NodeTrace:  res.NodeTrace,
		PerfGFlops: 1000,
	}
	fast = slow
	fast.SubsetTrace = res.SubsetTraceBetween
	fast.NodeAvg = res.NodeTraceAverage
	return slow, fast
}

// TestMeasureFastPathsBitIdentical checks that the SubsetTrace/NodeAvg
// fast paths change nothing observable: every reported field matches the
// per-node-trace reference implementation bit for bit, across specs,
// window placements and biased subset selection.
func TestMeasureFastPathsBitIdentical(t *testing.T) {
	slow, fast := fastPathTargets(t)
	specs := []Spec{
		MustLevelSpec(Level1),
		MustLevelSpec(Level2),
		RevisedLevel1(),
	}
	placements := []WindowPlacement{PlaceRandom, PlaceEarliest, PlaceLatest, PlaceCenter, PlaceBest}
	for _, spec := range specs {
		for _, bias := range []bool{false, true} {
			for seed := uint64(0); seed < 8; seed++ {
				for _, place := range placements {
					opts := Options{Seed: seed, BiasLowPowerNodes: bias, Placement: place}
					checkFastPath(t, slow, fast, spec, opts)
				}
			}
		}
	}
}

// checkFastPath measures both targets with one spec and options and
// fails unless every reported field agrees bit for bit.
func checkFastPath(t *testing.T, slow, fast Target, spec Spec, opts Options) {
	t.Helper()
	a, err := Measure(slow, spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Measure(fast, spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	name := fmt.Sprintf("%s %+v", spec.Level, opts)
	if a.WindowLo != b.WindowLo || a.WindowHi != b.WindowHi {
		t.Fatalf("%s: windows differ: [%v,%v] vs [%v,%v]",
			name, a.WindowLo, a.WindowHi, b.WindowLo, b.WindowHi)
	}
	if len(a.NodeIndex) != len(b.NodeIndex) {
		t.Fatalf("%s: subset sizes differ", name)
	}
	for i := range a.NodeIndex {
		if a.NodeIndex[i] != b.NodeIndex[i] {
			t.Fatalf("%s: subsets differ: %v vs %v", name, a.NodeIndex, b.NodeIndex)
		}
	}
	if a.SubsetAvg != b.SubsetAvg || a.SystemPower != b.SystemPower ||
		a.Energy != b.Energy || a.Efficiency != b.Efficiency {
		t.Fatalf("%s: reported values differ:\nslow %+v\nfast %+v", name, a, b)
	}
}
