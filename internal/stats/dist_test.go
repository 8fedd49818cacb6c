package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNormalCDFReference(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145705},
		{1.959963984540054, 0.975},
		{2.575829303548901, 0.995},
		{-3, 0.0013498980316300933},
	}
	for _, c := range cases {
		if got := StdNormal.CDF(c.x); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Φ(%v) = %.15f, want %.15f", c.x, got, c.want)
		}
	}
}

func TestNormalQuantileReference(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959963984540054},
		{0.995, 2.5758293035489004},
		{0.9, 1.2815515655446004},
		{0.025, -1.959963984540054},
	}
	for _, c := range cases {
		if got := ZQuantile(c.p); !almostEq(got, c.want, 1e-9) {
			t.Errorf("z(%v) = %.12f, want %.12f", c.p, got, c.want)
		}
	}
}

func TestNormalPDF(t *testing.T) {
	if got := StdNormal.PDF(0); !almostEq(got, 1/math.Sqrt(2*math.Pi), 1e-15) {
		t.Errorf("φ(0) = %v", got)
	}
	d := Normal{Mu: 3, Sigma: 2}
	if got, want := d.PDF(3), 1/(2*math.Sqrt(2*math.Pi)); !almostEq(got, want, 1e-15) {
		t.Errorf("N(3,2) PDF at mean = %v, want %v", got, want)
	}
}

func TestNormalMoments(t *testing.T) {
	d := Normal{Mu: -4, Sigma: 3}
	if d.Mean() != -4 || d.Variance() != 9 {
		t.Errorf("moments: %v, %v", d.Mean(), d.Variance())
	}
}

func TestNormalQuantileEndpoints(t *testing.T) {
	if !math.IsInf(StdNormal.Quantile(0), -1) || !math.IsInf(StdNormal.Quantile(1), 1) {
		t.Error("endpoint quantiles should be infinite")
	}
}

func TestRegIncompleteBetaClosedForms(t *testing.T) {
	// I_x(1, 1) = x
	for _, x := range []float64{0, 0.1, 0.5, 0.9, 1} {
		if got := RegIncompleteBeta(1, 1, x); !almostEq(got, x, 1e-13) {
			t.Errorf("I_%v(1,1) = %v", x, got)
		}
	}
	// I_x(a, 1) = x^a
	for _, x := range []float64{0.2, 0.7} {
		if got := RegIncompleteBeta(3, 1, x); !almostEq(got, x*x*x, 1e-13) {
			t.Errorf("I_%v(3,1) = %v, want %v", x, got, x*x*x)
		}
	}
	// I_x(1, b) = 1 - (1-x)^b
	if got := RegIncompleteBeta(1, 4, 0.3); !almostEq(got, 1-math.Pow(0.7, 4), 1e-13) {
		t.Errorf("I_0.3(1,4) = %v", got)
	}
	// Symmetry point: I_0.5(a, a) = 0.5.
	for _, a := range []float64{0.5, 1, 2, 7.5} {
		if got := RegIncompleteBeta(a, a, 0.5); !almostEq(got, 0.5, 1e-12) {
			t.Errorf("I_0.5(%v,%v) = %v", a, a, got)
		}
	}
}

// Property: I_x(a,b) + I_{1-x}(b,a) = 1.
func TestQuickIncompleteBetaSymmetry(t *testing.T) {
	f := func(ar, br, xr uint16) bool {
		a := 0.5 + float64(ar%1000)/50
		b := 0.5 + float64(br%1000)/50
		x := float64(xr) / 65536
		s := RegIncompleteBeta(a, b, x) + RegIncompleteBeta(b, a, 1-x)
		return almostEq(s, 1, 1e-10)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInverseRegIncompleteBeta(t *testing.T) {
	for _, a := range []float64{0.5, 1, 2, 5} {
		for _, b := range []float64{0.5, 1, 3} {
			for _, p := range []float64{0.01, 0.3, 0.5, 0.9, 0.999} {
				x := InverseRegIncompleteBeta(a, b, p)
				if got := RegIncompleteBeta(a, b, x); !almostEq(got, p, 1e-9) {
					t.Errorf("I_{I⁻¹(%v;%v,%v)} = %v", p, a, b, got)
				}
			}
		}
	}
}

func TestStudentTCauchySpecialCase(t *testing.T) {
	// ν=1 is the Cauchy distribution with closed forms.
	d := StudentT{Nu: 1}
	if got := d.PDF(0); !almostEq(got, 1/math.Pi, 1e-13) {
		t.Errorf("Cauchy PDF(0) = %v, want 1/π", got)
	}
	if got := d.CDF(1); !almostEq(got, 0.75, 1e-12) {
		t.Errorf("Cauchy CDF(1) = %v, want 0.75", got)
	}
	if got := d.Quantile(0.75); !almostEq(got, 1, 1e-9) {
		t.Errorf("Cauchy quantile(0.75) = %v, want 1", got)
	}
}

func TestStudentTQuantileReference(t *testing.T) {
	cases := []struct {
		df   int
		p    float64
		want float64
	}{
		{1, 0.975, 12.706204736432095},
		{2, 0.975, 4.302652729911275},
		{3, 0.975, 3.182446305284263}, // the paper's 4-node example
		{4, 0.975, 2.7764451051977987},
		{10, 0.95, 1.8124611228107335},
		{30, 0.975, 2.0422724563012373},
		{100, 0.975, 1.9839715184496334},
		// The paper's 292-node example; reference value cross-checked
		// against the Cornish-Fisher expansion
		// z + (z³+z)/(4ν) + (5z⁵+16z³+3z)/(96ν²) = 1.9681507.
		{291, 0.975, 1.9681496},
	}
	for _, c := range cases {
		if got := TQuantile(c.df, c.p); !almostEq(got, c.want, 1e-7) {
			t.Errorf("t(%d, %v) = %.12f, want %.12f", c.df, c.p, got, c.want)
		}
	}
}

func TestStudentTCDFReference(t *testing.T) {
	cases := []struct {
		nu, x, want float64
	}{
		{5, 0, 0.5},
		{5, 2, 0.9490302605850709},
		{5, -2, 0.05096973941492914},
		{15, 1.3406056078504547, 0.9},
	}
	for _, c := range cases {
		if got := (StudentT{Nu: c.nu}).CDF(c.x); !almostEq(got, c.want, 1e-10) {
			t.Errorf("T_%v CDF(%v) = %.12f, want %.12f", c.nu, c.x, got, c.want)
		}
	}
}

func TestStudentTApproachesNormal(t *testing.T) {
	// For large ν, t quantiles approach z quantiles (the paper's Eq. 2
	// approximation).
	z := ZQuantile(0.975)
	tq := TQuantile(100000, 0.975)
	if math.Abs(tq-z) > 1e-4 {
		t.Errorf("t(100000) = %v vs z = %v", tq, z)
	}
	// Beyond that the excess over z shrinks as (z³+z)/(4ν) and never
	// goes negative, up to the sample sizes a sample-size plan can ask
	// for (the incomplete-beta inversion once returned 3.02 at ν = 1e15).
	prev := tq
	for _, df := range []int{100001, 1e6, 1e9, 1e12, 1e15} {
		got := TQuantile(df, 0.975)
		lead := (z*z*z + z) / (4 * float64(df))
		if got < z || got > prev || math.Abs(got-z-lead) > 1e-3*lead+1e-15 {
			t.Errorf("t(%d) = %.17g, want z + %.3g = %.17g", df, got, lead, z+lead)
		}
		prev = got
	}
}

func TestStudentTUnderCoverageAt15(t *testing.T) {
	// Section 4.2: "for samples of size n = 15, approximating the t
	// quantile with a normal quantile will produce 95% confidence
	// intervals which are roughly 9% too narrow."
	ratio := TQuantile(14, 0.975) / ZQuantile(0.975)
	narrowing := 1 - 1/ratio
	if narrowing < 0.07 || narrowing > 0.11 {
		t.Errorf("z-for-t narrowing at n=15 = %.3f, paper says ~9%%", narrowing)
	}
}

func TestStudentTMoments(t *testing.T) {
	if got := (StudentT{Nu: 5}).Variance(); !almostEq(got, 5.0/3, 1e-12) {
		t.Errorf("Var(t5) = %v", got)
	}
	if got := (StudentT{Nu: 1.5}).Variance(); !math.IsInf(got, 1) {
		t.Errorf("Var(t1.5) = %v, want +Inf", got)
	}
	if got := (StudentT{Nu: 0.5}).Mean(); !math.IsNaN(got) {
		t.Errorf("Mean(t0.5) = %v, want NaN", got)
	}
	if got := (StudentT{Nu: 3}).Mean(); got != 0 {
		t.Errorf("Mean(t3) = %v, want 0", got)
	}
}

// Property: Quantile(CDF(x)) ≈ x for the t distribution.
func TestQuickTQuantileInvertsCDF(t *testing.T) {
	f := func(nuRaw, xRaw uint16) bool {
		nu := 1 + float64(nuRaw%60)
		x := (float64(xRaw)/65535 - 0.5) * 8
		d := StudentT{Nu: nu}
		got := d.Quantile(d.CDF(x))
		return almostEq(got, x, 1e-5*(1+math.Abs(x)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: CDF is nondecreasing for both distributions.
func TestQuickCDFMonotone(t *testing.T) {
	f := func(a, b float64, nuRaw uint8) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		nu := 1 + float64(nuRaw%40)
		td := StudentT{Nu: nu}
		return StdNormal.CDF(a) <= StdNormal.CDF(b)+1e-14 &&
			td.CDF(a) <= td.CDF(b)+1e-14
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistributionPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"normal sigma":   func() { Normal{Sigma: 0}.CDF(0) },
		"normal p":       func() { StdNormal.Quantile(1.5) },
		"t nu":           func() { StudentT{Nu: 0}.CDF(0) },
		"t p":            func() { StudentT{Nu: 3}.Quantile(-0.1) },
		"beta ab":        func() { RegIncompleteBeta(0, 1, 0.5) },
		"beta x":         func() { RegIncompleteBeta(1, 1, 1.5) },
		"inverse beta p": func() { InverseRegIncompleteBeta(1, 1, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func BenchmarkTQuantile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		TQuantile(14, 0.975)
	}
}

func BenchmarkNormalQuantile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ZQuantile(0.975)
	}
}
