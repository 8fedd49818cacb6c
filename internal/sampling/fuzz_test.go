package sampling

import (
	"math"
	"testing"
)

// FuzzPlanSampleSize drives the Equation 5 machinery with arbitrary plan
// parameters: invalid plans must error (never panic or return garbage),
// and valid plans must produce a self-consistent recommendation — at
// least 2 nodes, clamped to the population, and achieving roughly the
// requested accuracy when checked with ExpectedAccuracy.
func FuzzPlanSampleSize(f *testing.F) {
	f.Add(0.95, 0.01, 0.02, 1000)
	f.Add(0.9, 0.005, 0.03, 0)
	f.Add(0.99, 0.001, 0.015, 64)
	f.Add(0.5, 1.0, 1.0, 2)
	f.Add(-1.0, 0.0, math.NaN(), -5)
	f.Add(0.95, 1e-300, 1e300, 1)
	f.Add(2.0/3, 16.0, math.NaN(), 63)            // NaN CV must not validate
	f.Add(0.9, 0.0004999999999999894, 9601.92, 0) // n ≈ 1e15: t quantile at huge df
	f.Fuzz(func(t *testing.T, confidence, accuracy, cv float64, population int) {
		p := Plan{Confidence: confidence, Accuracy: accuracy, CV: cv, Population: population}
		n, err := p.RequiredSampleSize()
		if p.Validate() != nil {
			if err == nil {
				t.Fatalf("invalid plan %+v produced n=%d", p, n)
			}
			return
		}
		if err != nil {
			return // overflow-ish plans may fail downstream; just no panic
		}
		// The variance floor is 2 nodes, unless the whole population is
		// smaller than that.
		minN := 2
		if p.Population > 0 && p.Population < minN {
			minN = p.Population
		}
		if n < minN {
			t.Fatalf("plan %+v recommended %d < %d nodes", p, n, minN)
		}
		if p.Population > 0 && n > p.Population {
			t.Fatalf("plan %+v recommended %d of %d nodes", p, n, p.Population)
		}
		if n < 2 {
			return // a 1-node population supports no variance estimate
		}
		acc, err := p.ExpectedAccuracy(n)
		if err != nil {
			t.Fatalf("ExpectedAccuracy(%d) for valid plan %+v: %v", n, p, err)
		}
		if math.IsNaN(acc) || acc < 0 {
			t.Fatalf("ExpectedAccuracy(%d) = %v for plan %+v", n, acc, p)
		}
		// When the recommendation did not hit a clamp (population cap or
		// the n>=2 floor), it should achieve the requested accuracy with
		// slack only for the t-vs-z quantile gap at tiny n.
		if n >= 30 && (p.Population == 0 || n < p.Population) && acc > accuracy*1.1 {
			t.Fatalf("plan %+v: n=%d achieves λ=%v, wanted %v", p, n, acc, accuracy)
		}
	})
}
