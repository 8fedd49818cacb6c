package stats

import (
	"testing"
	"testing/quick"

	"nodevar/internal/rng"
)

func TestMatchMomentsExact(t *testing.T) {
	r := rng.New(31)
	xs := make([]float64, 480)
	for i := range xs {
		xs[i] = r.Normal(500, 30)
	}
	// Calibrate to the paper's Calcul Québec values (Table 4).
	MatchMoments(xs, 581.93, 11.66)
	mean, sd := MeanStdDev(xs)
	if !almostEq(mean, 581.93, 1e-9) {
		t.Errorf("matched mean = %v", mean)
	}
	if !almostEq(sd, 11.66, 1e-9) {
		t.Errorf("matched sd = %v", sd)
	}
}

func TestMatchMomentsPreservesShape(t *testing.T) {
	r := rng.New(32)
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = r.ExpFloat64()
	}
	before := Skewness(xs)
	MatchMoments(xs, 100, 10)
	after := Skewness(xs)
	if !almostEq(before, after, 1e-9) {
		t.Errorf("skewness changed: %v -> %v", before, after)
	}
}

func TestMatchMomentsZeroSD(t *testing.T) {
	xs := []float64{1, 2, 3}
	MatchMoments(xs, 7, 0)
	for _, x := range xs {
		if x != 7 {
			t.Errorf("zero-SD match: %v", xs)
		}
	}
}

func TestMatchMomentsPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"short":        func() { MatchMoments([]float64{1}, 0, 1) },
		"negative sd":  func() { MatchMoments([]float64{1, 2}, 0, -1) },
		"zero var fix": func() { MatchMoments([]float64{3, 3}, 0, 1) },
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

func TestRelativeError(t *testing.T) {
	if got := RelativeError(101, 100); !almostEq(got, 0.01, 1e-12) {
		t.Errorf("RelativeError = %v", got)
	}
	if got := RelativeError(99, -100); !almostEq(got, 1.99, 1e-12) {
		t.Errorf("RelativeError with negative reference = %v", got)
	}
}

// Property: MatchMoments hits any reasonable target exactly.
func TestQuickMatchMoments(t *testing.T) {
	f := func(seed uint64, meanRaw, sdRaw uint16) bool {
		r := rng.New(seed)
		xs := make([]float64, 20)
		for i := range xs {
			xs[i] = r.Normal(0, 1)
		}
		targetMean := float64(meanRaw) - 32768
		targetSD := float64(sdRaw%1000) / 10
		MatchMoments(xs, targetMean, targetSD)
		mean, sd := MeanStdDev(xs)
		return almostEq(mean, targetMean, 1e-6) && almostEq(sd, targetSD, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
