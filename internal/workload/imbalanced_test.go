package workload

import (
	"math"
	"testing"

	"nodevar/internal/stats"
)

func TestNewImbalancedValidation(t *testing.T) {
	base := Firestarter(100)
	if _, err := NewImbalanced(nil, []float64{1}); err == nil {
		t.Error("nil base accepted")
	}
	if _, err := NewImbalanced(base, nil); err == nil {
		t.Error("empty scales accepted")
	}
	if _, err := NewImbalanced(base, []float64{1, -1}); err == nil {
		t.Error("negative scale accepted")
	}
}

func TestImbalancedClamping(t *testing.T) {
	base := Firestarter(100) // utilization 1
	w, err := NewImbalanced(base, []float64{0.5, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.NodeUtilization(0, 50); got != 0.5 {
		t.Errorf("node 0 = %v", got)
	}
	if got := w.NodeUtilization(2, 50); got != 1 { // clamped
		t.Errorf("node 2 = %v", got)
	}
	if got := w.NodeUtilization(5, 50); got != 0 { // out of range
		t.Errorf("node 5 = %v", got)
	}
	if got := w.NodeUtilization(0, 200); got != 0 { // after run
		t.Errorf("after-run = %v", got)
	}
	// The balanced view averages the per-node values.
	if got := w.Utilization(50); math.Abs(got-(0.5+1+1)/3) > 1e-12 {
		t.Errorf("average utilization = %v", got)
	}
	if w.CoreDuration() != 100 {
		t.Errorf("duration = %v", w.CoreDuration())
	}
}

func TestNewImbalancedSkewedScales(t *testing.T) {
	w, err := NewImbalancedSkewed(Firestarter(100), 3000, 9)
	if err != nil {
		t.Fatal(err)
	}
	if s := stats.Skewness(w.Scales); s < 1 {
		t.Errorf("scale skewness = %v, want heavy right skew", s)
	}
	if _, err := NewImbalancedSkewed(Firestarter(100), -1, 1); err == nil {
		t.Error("negative nodes accepted")
	}
}
