package workload

import (
	"math"
	"testing"
	"testing/quick"

	"nodevar/internal/hpl"
)

// MeanUtilization returns the duty-cycle-weighted mean level.
func (w *Iterative) MeanUtilization() float64 {
	return w.High*w.DutyCycle + w.Low*(1-w.DutyCycle)
}

func hplRun(t *testing.T) *hpl.Run {
	t.Helper()
	run, err := hpl.Simulate(hpl.Config{
		MatrixOrder:    10000,
		BlockSize:      100,
		Nodes:          50,
		NodePeak:       400,
		PeakEfficiency: 0.75,
		TailKnee:       0.02,
		PanelFraction:  0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestHPLWorkload(t *testing.T) {
	run := hplRun(t)
	w, err := NewHPL(run)
	if err != nil {
		t.Fatal(err)
	}
	if w.CoreDuration() != run.CoreDuration {
		t.Errorf("CoreDuration mismatch")
	}
	if got := w.Utilization(0); got != run.Steps[0].Utilization {
		t.Errorf("Utilization(0) = %v", got)
	}
	if got := w.Utilization(-1); got != 0 {
		t.Errorf("Utilization before run = %v", got)
	}
	if got := w.Utilization(run.CoreDuration + 1); got != 0 {
		t.Errorf("Utilization after run = %v", got)
	}
}

func TestNewHPLRejectsNil(t *testing.T) {
	if _, err := NewHPL(nil); err == nil {
		t.Error("nil run accepted")
	}
}

func TestConstantWorkloads(t *testing.T) {
	fs := Firestarter(3600)
	if fs.CoreDuration() != 3600 {
		t.Errorf("Firestarter = %+v", fs)
	}
	if got := fs.Utilization(1800); got != 1 {
		t.Errorf("FIRESTARTER utilization = %v", got)
	}
	if got := fs.Utilization(3600); got != 0 {
		t.Errorf("utilization at phase end = %v, want 0", got)
	}
	mp := MPrime(100)
	if got := mp.Utilization(50); got != 0.94 {
		t.Errorf("MPrime utilization = %v", got)
	}
}

func TestIterativeValidation(t *testing.T) {
	cases := []struct{ dur, high, low, period, duty float64 }{
		{0, 1, 0, 10, 0.5},
		{10, 0.5, 0.9, 10, 0.5}, // high < low
		{10, 1.5, 0.5, 10, 0.5}, // high > 1
		{10, 0.9, -1, 10, 0.5},  // low < 0
		{10, 0.9, 0.5, 0, 0.5},  // period 0
		{10, 0.9, 0.5, 10, 0},   // duty 0
		{10, 0.9, 0.5, 10, 1},   // duty 1
	}
	for i, c := range cases {
		if _, err := NewIterative(c.dur, c.high, c.low, c.period, c.duty); err == nil {
			t.Errorf("bad iterative %d accepted", i)
		}
	}
}

func TestIterativeShape(t *testing.T) {
	w, err := NewIterative(100, 0.9, 0.5, 10, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Utilization(1); got != 0.9 {
		t.Errorf("kernel phase = %v", got)
	}
	if got := w.Utilization(7); got != 0.5 {
		t.Errorf("bookkeeping phase = %v", got)
	}
	if got := w.Utilization(11); got != 0.9 {
		t.Errorf("second period kernel = %v", got)
	}
	if got := w.MeanUtilization(); math.Abs(got-(0.9*0.6+0.5*0.4)) > 1e-12 {
		t.Errorf("mean utilization = %v", got)
	}
}

func TestRodiniaCFD(t *testing.T) {
	w := RodiniaCFD(600)
	if w.CoreDuration() != 600 {
		t.Errorf("duration = %v", w.CoreDuration())
	}
	mean := w.MeanUtilization()
	if mean < 0.7 || mean > 1 {
		t.Errorf("mean utilization = %v", mean)
	}
}

// Property: all workloads stay within [0, 1] utilization everywhere.
func TestQuickUtilizationBounds(t *testing.T) {
	run := hplRun(t)
	hw, err := NewHPL(run)
	if err != nil {
		t.Fatal(err)
	}
	ws := []Workload{
		hw,
		Firestarter(1000),
		MPrime(1000),
		RodiniaCFD(1000),
	}
	f := func(raw uint32) bool {
		tt := float64(raw)/4e6 - 100
		for _, w := range ws {
			u := w.Utilization(tt)
			if u < 0 || u > 1 || math.IsNaN(u) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
