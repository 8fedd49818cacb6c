package workload

import (
	"math"
	"testing"
)

func TestNewEntropyScaledValidation(t *testing.T) {
	core := Firestarter(100)
	bad := []struct {
		entropy, sens float64
	}{
		{-0.1, 0.2},
		{1.1, 0.2},
		{math.NaN(), 0.2},
		{0.5, -0.1},
		{0.5, 0.6},
		{0.5, math.NaN()},
	}
	for i, c := range bad {
		if _, err := NewEntropyScaled(core, c.entropy, c.sens); err == nil {
			t.Errorf("bad entropy params %d accepted", i)
		}
	}
	if _, err := NewEntropyScaled(nil, 0.5, 0.2); err == nil {
		t.Error("nil core accepted")
	}
}

func TestEntropyScaling(t *testing.T) {
	core := Firestarter(100)

	// Full entropy reproduces the core workload exactly.
	full, err := NewEntropyScaled(core, 1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if got := full.Utilization(50); got != core.Utilization(50) {
		t.Errorf("full-entropy utilization = %v, want %v", got, core.Utilization(50))
	}
	if full.Scale() != 1 {
		t.Errorf("full-entropy scale = %v, want 1", full.Scale())
	}

	// Zero entropy sheds the whole sensitivity fraction.
	flat, err := NewEntropyScaled(core, 0, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := flat.Utilization(50), core.Utilization(50)*0.7; math.Abs(got-want) > 1e-12 {
		t.Errorf("zero-entropy utilization = %v, want %v", got, want)
	}

	// Scaling is monotone in entropy.
	mid, err := NewEntropyScaled(core, 0.5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if !(flat.Scale() < mid.Scale() && mid.Scale() < full.Scale()) {
		t.Errorf("scales not monotone: %v, %v, %v", flat.Scale(), mid.Scale(), full.Scale())
	}

	// Duration and bounds are preserved.
	if mid.CoreDuration() != core.CoreDuration() {
		t.Errorf("entropy modifier changed duration: %v", mid.CoreDuration())
	}
	for _, x := range []float64{-1, 0, 10, 50, 99.9, 100, 200} {
		u := mid.Utilization(x)
		if u < 0 || u > 1 || math.IsNaN(u) {
			t.Fatalf("utilization %v at t=%v outside [0, 1]", u, x)
		}
	}
}
