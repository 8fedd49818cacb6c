package stats

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// FuzzRegIncompleteBeta checks the continued-fraction evaluation stays in
// [0, 1] and monotone for arbitrary valid inputs.
func FuzzRegIncompleteBeta(f *testing.F) {
	f.Add(0.5, 0.5, 0.5)
	f.Add(2.0, 3.0, 0.25)
	f.Add(145.5, 0.5, 0.99)
	f.Add(1e-3, 1e3, 0.01)
	f.Add(1.0/3, 3.0, 0.25) // x on the reflection threshold
	f.Fuzz(func(t *testing.T, a, b, x float64) {
		if !(a > 0) || !(b > 0) || math.IsInf(a, 0) || math.IsInf(b, 0) || a > 1e6 || b > 1e6 {
			return
		}
		if !(x >= 0 && x <= 1) {
			return
		}
		v := RegIncompleteBeta(a, b, x)
		if math.IsNaN(v) || v < -1e-12 || v > 1+1e-12 {
			t.Fatalf("I_%v(%v,%v) = %v outside [0,1]", x, a, b, v)
		}
		// Monotonicity in x at a nearby point.
		x2 := x + (1-x)*0.25
		v2 := RegIncompleteBeta(a, b, x2)
		if v2 < v-1e-9 {
			t.Fatalf("CDF decreased: I(%v)=%v > I(%v)=%v for (a=%v, b=%v)", x, v, x2, v2, a, b)
		}
	})
}

// FuzzTQuantileCDF checks quantile/CDF consistency for the t distribution
// across fuzzer-chosen degrees of freedom and probabilities.
func FuzzTQuantileCDF(f *testing.F) {
	f.Add(3.0, 0.975)
	f.Add(1.0, 0.5)
	f.Add(291.0, 0.995)
	f.Add(1e15, 0.975) // past largeNu, where both sides switch to the normal expansions
	f.Fuzz(func(t *testing.T, nu, p float64) {
		if !(nu > 0.5) || math.IsInf(nu, 0) {
			return
		}
		if !(p > 0.001 && p < 0.999) {
			return
		}
		d := StudentT{Nu: nu}
		x := d.Quantile(p)
		if math.IsNaN(x) {
			t.Fatalf("Quantile(%v) NaN for nu=%v", p, nu)
		}
		back := d.CDF(x)
		if math.Abs(back-p) > 1e-6 {
			t.Fatalf("CDF(Quantile(%v)) = %v for nu=%v", p, back, nu)
		}
	})
}

// FuzzMeanCI drives confidence-interval construction with arbitrary
// sample data decoded from raw bytes. Properties checked on every valid
// input: the half-width is non-negative and finite, the exact t interval
// contains the z approximation (t quantiles dominate z for every df),
// and the finite population correction can only shrink the interval.
func FuzzMeanCI(f *testing.F) {
	f.Add([]byte{}, 0.95, 100)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, 0.9, 0)
	f.Add(bytes.Repeat([]byte{0x3f}, 64), 0.99, 4)
	f.Add(bytes.Repeat([]byte{0xff}, 32), 0.5, 2)
	f.Fuzz(func(t *testing.T, data []byte, confidence float64, population int) {
		if !(confidence > 0 && confidence < 1) {
			return
		}
		var xs []float64
		for i := 0; i+8 <= len(data) && len(xs) < 256; i += 8 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(data[i : i+8]))
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				continue
			}
			xs = append(xs, v)
		}
		if len(xs) < 2 {
			return
		}
		tCI := MeanCI(xs, CIOptions{Confidence: confidence})
		zCI := MeanCI(xs, CIOptions{Confidence: confidence, UseZ: true})
		for _, ci := range []Interval{tCI, zCI} {
			if ci.HalfWidth < 0 || math.IsNaN(ci.HalfWidth) || math.IsInf(ci.HalfWidth, 0) {
				t.Fatalf("half-width %v from %d samples at %v", ci.HalfWidth, len(xs), confidence)
			}
			if math.IsNaN(ci.Center) {
				t.Fatalf("NaN center from finite samples")
			}
		}
		if tCI.HalfWidth < zCI.HalfWidth*(1-1e-12) {
			t.Fatalf("t interval (%v) narrower than z (%v) with n=%d",
				tCI.HalfWidth, zCI.HalfWidth, len(xs))
		}
		if population >= len(xs) && population > 1 {
			fpc := MeanCI(xs, CIOptions{Confidence: confidence, PopulationSize: population})
			if fpc.HalfWidth > tCI.HalfWidth*(1+1e-12) {
				t.Fatalf("FPC widened the interval: %v > %v (n=%d, N=%d)",
					fpc.HalfWidth, tCI.HalfWidth, len(xs), population)
			}
		}
	})
}
