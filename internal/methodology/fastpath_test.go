package methodology

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"nodevar/internal/cluster"
	"nodevar/internal/power"
	"nodevar/internal/rng"
	"nodevar/internal/systems"
)

// summedNodeTraces is the reference SubsetTrace: it sums whole node
// traces sample by sample in idx order and ignores the window. The node
// traces must share their timestamps, as the traces of one run do.
func summedNodeTraces(nodeTrace func(int) *power.Trace) func(idx []int, lo, hi float64) (*power.Trace, error) {
	return func(idx []int, _, _ float64) (*power.Trace, error) {
		if len(idx) == 0 {
			return nil, errors.New("empty node subset")
		}
		out := append([]power.Sample(nil), nodeTrace(idx[0]).Samples()...)
		for _, node := range idx[1:] {
			s := nodeTrace(node).Samples()
			if len(s) != len(out) {
				return nil, errors.New("node traces not aligned")
			}
			for k := range out {
				if s[k].Time != out[k].Time {
					return nil, errors.New("node trace timestamps differ")
				}
				out[k].Power += s[k].Power
			}
		}
		return power.NewTrace(out)
	}
}

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
		Name:        "fastpath",
		TotalNodes:  96,
		System:      res.System,
		SubsetTrace: summedNodeTraces(res.NodeTrace),
		PerfGFlops:  1000,
	}
	fast = slow
	fast.SubsetTrace = res.SubsetTraceBetween
	return slow, fast
}

// TestMeasureFastPathsBitIdentical checks that cluster's windowed
// SubsetTraceBetween reader changes nothing observable: every reported
// field matches the reference reader that sums whole node traces, bit
// for bit, across specs, window placements and biased subset selection.
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

// TestCompareMetersFastPathBitIdentical compares every meter preset with
// both readers. The reference report and each model's pilot-phase
// results (MeasuredCV, SampleSize) must match bit for bit: the pilot
// reads each node over the whole core phase, where the windowed reader
// returns exactly the node's samples.
func TestCompareMetersFastPathBitIdentical(t *testing.T) {
	slow, fast := fastPathTargets(t)
	var models []NamedModel
	for _, p := range systems.MeterPresets() {
		models = append(models, NamedModel{Name: p.Key, Model: p.Model})
	}
	cfg := DistortionConfig{PilotNodes: 24, Seed: 2015}
	a, err := CompareMeters(slow, models, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CompareMeters(fast, models, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.TrueAvg != b.TrueAvg || !reflect.DeepEqual(a.Reference, b.Reference) {
		t.Fatalf("reference reports differ:\nslow %+v\nfast %+v", a.Reference, b.Reference)
	}
	if len(a.Models) != len(models) || len(b.Models) != len(models) {
		t.Fatalf("got %d and %d model reports, want %d", len(a.Models), len(b.Models), len(models))
	}
	for i, ma := range a.Models {
		mb := b.Models[i]
		if ma.MeasuredCV != mb.MeasuredCV || ma.SampleSize != mb.SampleSize {
			t.Errorf("%s: pilot differs: CV %v vs %v, n %d vs %d",
				ma.Name, ma.MeasuredCV, mb.MeasuredCV, ma.SampleSize, mb.SampleSize)
		}
	}
}
