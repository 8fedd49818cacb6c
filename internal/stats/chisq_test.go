package stats

import (
	"math"
	"testing"
	"testing/quick"

	"nodevar/internal/rng"
)

func TestChiSquaredClosedForms(t *testing.T) {
	// K=2 is Exponential(1/2): CDF(x) = 1 - e^{-x/2}.
	d := ChiSquared{K: 2}
	for _, x := range []float64{0.5, 1, 2, 5} {
		want := 1 - math.Exp(-x/2)
		if got := d.CDF(x); !almostEq(got, want, 1e-12) {
			t.Errorf("χ²₂ CDF(%v) = %v, want %v", x, got, want)
		}
	}
	if got := d.PDF(0); got != 0.5 {
		t.Errorf("χ²₂ PDF(0) = %v", got)
	}
	if got := d.Quantile(1 - math.Exp(-1)); !almostEq(got, 2, 1e-9) {
		t.Errorf("χ²₂ quantile = %v, want 2", got)
	}
}

func TestChiSquaredReference(t *testing.T) {
	// Classic table values: χ²₀.₉₅ with k df.
	cases := []struct {
		k    float64
		p    float64
		want float64
	}{
		{1, 0.95, 3.841458820694124},
		{5, 0.95, 11.070497693516351},
		{10, 0.95, 18.307038053275146},
		{9, 0.975, 19.02276780213923},
		{9, 0.025, 2.7003894999803584},
	}
	for _, c := range cases {
		if got := (ChiSquared{K: c.k}).Quantile(c.p); !almostEq(got, c.want, 1e-6) {
			t.Errorf("χ²(%v, %v) = %.9f, want %.9f", c.k, c.p, got, c.want)
		}
	}
}

func TestChiSquaredMoments(t *testing.T) {
	d := ChiSquared{K: 7}
	if d.Mean() != 7 || d.Variance() != 14 {
		t.Errorf("moments (%v, %v)", d.Mean(), d.Variance())
	}
}

func TestChiSquaredPDFIntegratesToCDF(t *testing.T) {
	d := ChiSquared{K: 4}
	// Trapezoid integral of the PDF from 0 to 6 vs CDF(6).
	const steps = 20000
	var integral float64
	for i := 0; i < steps; i++ {
		a := 6 * float64(i) / steps
		b := 6 * float64(i+1) / steps
		integral += (d.PDF(a) + d.PDF(b)) / 2 * (b - a)
	}
	if !almostEq(integral, d.CDF(6), 1e-6) {
		t.Errorf("∫pdf = %v vs CDF = %v", integral, d.CDF(6))
	}
}

func TestRegLowerGammaEdges(t *testing.T) {
	if got := RegLowerGamma(3, 0); got != 0 {
		t.Errorf("P(3, 0) = %v", got)
	}
	// P(1, x) = 1 - e^{-x}.
	for _, x := range []float64{0.1, 1, 10} {
		if got := RegLowerGamma(1, x); !almostEq(got, 1-math.Exp(-x), 1e-12) {
			t.Errorf("P(1, %v) = %v", x, got)
		}
	}
	// Large x → 1.
	if got := RegLowerGamma(2, 100); !almostEq(got, 1, 1e-12) {
		t.Errorf("P(2, 100) = %v", got)
	}
}

// Property: χ² quantile inverts the CDF.
func TestQuickChiSquaredQuantileInverts(t *testing.T) {
	f := func(kRaw, pRaw uint16) bool {
		k := 1 + float64(kRaw%100)
		p := 0.001 + 0.998*float64(pRaw)/65535
		d := ChiSquared{K: k}
		x := d.Quantile(p)
		return almostEq(d.CDF(x), p, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestKolmogorovSmirnovAcceptsMatching(t *testing.T) {
	r := rng.New(7)
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = r.Normal(10, 2)
	}
	d, p := KolmogorovSmirnov(xs, Normal{Mu: 10, Sigma: 2})
	if d > 0.05 {
		t.Errorf("KS statistic = %v for matching distribution", d)
	}
	if p < 0.01 {
		t.Errorf("KS p-value = %v for matching distribution", p)
	}
}

func TestKolmogorovSmirnovRejectsMismatched(t *testing.T) {
	r := rng.New(8)
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = math.Exp(r.Normal(0, 1)) // log-normal sample
	}
	_, p := KolmogorovSmirnov(xs, Normal{Mu: Mean(xs), Sigma: StdDev(xs)})
	if p > 1e-4 {
		t.Errorf("KS p-value = %v for badly mismatched distribution", p)
	}
}

func TestKolmogorovSmirnovPanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	KolmogorovSmirnov(nil, StdNormal)
}
