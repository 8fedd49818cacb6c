package meter_test

import (
	"math"
	"testing"

	"nodevar/internal/meter"
	"nodevar/internal/power"
)

func hierarchyComputeTrace(t *testing.T) *power.Trace {
	t.Helper()
	samples := make([]power.Sample, 601)
	for i := range samples {
		// A mild ramp with a sinusoidal load swing around 40 kW.
		w := 40000 + 20*float64(i) + 3000*math.Sin(float64(i)/40)
		samples[i] = power.Sample{Time: float64(i), Power: power.Watts(w)}
	}
	tr, err := power.NewTrace(samples)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestHierarchyBiasOrdering pins the structural property the hierarchy
// models: metering higher in the tree only ever overstates compute power.
func TestHierarchyBiasOrdering(t *testing.T) {
	compute := hierarchyComputeTrace(t)
	h, err := meter.NewHierarchy(compute, 64, meter.FacilityModel{
		RackOverheadPerNode: 30,
		InterconnectWatts:   2000,
		ServiceNodesWatts:   1500,
		OtherLoadsWatts:     25000,
		CoolingCOP:          4,
	})
	if err != nil {
		t.Fatal(err)
	}
	points := []meter.MeteringPoint{meter.PointNode, meter.PointPDU, meter.PointMachine, meter.PointFacility}
	prev := -1.0
	for _, p := range points {
		bias, err := h.BiasAt(p)
		if err != nil {
			t.Fatal(err)
		}
		if bias < prev {
			t.Errorf("bias at %v (%v) below the next point down (%v)", p, bias, prev)
		}
		prev = bias
	}
	if nodeBias, _ := h.BiasAt(meter.PointNode); nodeBias != 0 {
		t.Errorf("node-point bias %v, want exactly 0", nodeBias)
	}
	if prev < 0.25 {
		t.Errorf("facility bias %v implausibly small for a shared feed with cooling", prev)
	}
}
