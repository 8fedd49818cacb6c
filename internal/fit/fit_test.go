package fit

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNelderMeadQuadratic(t *testing.T) {
	f := func(x []float64) float64 {
		return (x[0]-3)*(x[0]-3) + 2*(x[1]+1)*(x[1]+1)
	}
	res := NelderMead(f, []float64{0, 0}, NelderMeadOptions{})
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	if math.Abs(res.X[0]-3) > 1e-4 || math.Abs(res.X[1]+1) > 1e-4 {
		t.Errorf("minimizer = %v, want (3, -1)", res.X)
	}
	if res.F > 1e-7 {
		t.Errorf("minimum value = %v", res.F)
	}
}

func TestNelderMeadRosenbrock(t *testing.T) {
	f := func(x []float64) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return a*a + 100*b*b
	}
	res := NelderMead(f, []float64{-1.2, 1}, NelderMeadOptions{MaxIter: 5000})
	if math.Abs(res.X[0]-1) > 1e-3 || math.Abs(res.X[1]-1) > 1e-3 {
		t.Errorf("Rosenbrock minimizer = %v, want (1, 1)", res.X)
	}
}

func TestNelderMeadRespectsInfConstraints(t *testing.T) {
	// Constrained region x >= 0 encoded by +Inf.
	f := func(x []float64) float64 {
		if x[0] < 0 {
			return math.Inf(1)
		}
		return (x[0] - (-2)) * (x[0] - (-2)) // unconstrained min at -2
	}
	res := NelderMead(f, []float64{1}, NelderMeadOptions{MaxIter: 2000})
	if res.X[0] < -1e-9 {
		t.Errorf("constraint violated: %v", res.X)
	}
	if math.Abs(res.X[0]) > 1e-3 {
		t.Errorf("constrained minimizer = %v, want 0", res.X)
	}
}

func TestNelderMead1D(t *testing.T) {
	f := func(x []float64) float64 { return math.Pow(x[0]-7, 4) }
	res := NelderMead(f, []float64{0}, NelderMeadOptions{MaxIter: 3000})
	if math.Abs(res.X[0]-7) > 1e-2 {
		t.Errorf("1D minimizer = %v", res.X)
	}
}

func TestNelderMeadPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NelderMead(func(x []float64) float64 { return 0 }, nil, NelderMeadOptions{})
}

// Property: NelderMead on a shifted parabola finds the shift.
func TestQuickNelderMeadParabola(t *testing.T) {
	f := func(shiftRaw int16) bool {
		shift := float64(shiftRaw) / 1000
		obj := func(x []float64) float64 { return (x[0] - shift) * (x[0] - shift) }
		res := NelderMead(obj, []float64{0}, NelderMeadOptions{MaxIter: 2000})
		return math.Abs(res.X[0]-shift) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
