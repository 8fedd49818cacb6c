package power

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestUnitConversions(t *testing.T) {
	if Watts(1500).Kilowatts() != 1.5 {
		t.Error("Kilowatts")
	}
	if Watts(2.5e6).Megawatts() != 2.5 {
		t.Error("Megawatts")
	}
	if Joules(3.6e6).KilowattHours() != 1 {
		t.Error("KilowattHours")
	}
	if Joules(7.2e9).MegawattHours() != 2 {
		t.Error("MegawattHours")
	}
}

func TestUnitStrings(t *testing.T) {
	if s := Watts(11.5e6).String(); !strings.Contains(s, "MW") {
		t.Errorf("Watts string = %q", s)
	}
	if s := Watts(59100).String(); !strings.Contains(s, "kW") {
		t.Errorf("Watts string = %q", s)
	}
	if s := Watts(390).String(); !strings.Contains(s, "W") {
		t.Errorf("Watts string = %q", s)
	}
	if s := Joules(100).String(); !strings.Contains(s, "J") {
		t.Errorf("Joules string = %q", s)
	}
	if s := Joules(1e10).String(); !strings.Contains(s, "MWh") {
		t.Errorf("Joules string = %q", s)
	}
}

func TestEfficiencyOf(t *testing.T) {
	if got := EfficiencyOf(5270, 1000); got != 5.27 {
		t.Errorf("EfficiencyOf = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on zero power")
		}
	}()
	EfficiencyOf(1, 0)
}

func mustTrace(t *testing.T, samples []Sample) *Trace {
	t.Helper()
	tr, err := NewTrace(samples)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func rampTrace(t *testing.T) *Trace {
	// Power ramps linearly 100 -> 200 W over 100 s.
	return mustTrace(t, []Sample{{0, 100}, {50, 150}, {100, 200}})
}

func TestNewTraceRejectsDisorder(t *testing.T) {
	if _, err := NewTrace([]Sample{{1, 10}, {1, 20}}); err == nil {
		t.Error("duplicate timestamps accepted")
	}
	if _, err := NewTrace([]Sample{{2, 10}, {1, 20}}); err == nil {
		t.Error("decreasing timestamps accepted")
	}
}

func TestAppend(t *testing.T) {
	tr := mustTrace(t, []Sample{{0, 1}})
	if err := tr.Append(Sample{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Append(Sample{0.5, 3}); err == nil {
		t.Error("out-of-order append accepted")
	}
	if tr.Len() != 2 {
		t.Errorf("Len = %d", tr.Len())
	}
}

func TestAtInterpolatesAndClamps(t *testing.T) {
	tr := rampTrace(t)
	cases := []struct{ x, want float64 }{
		{-10, 100}, {0, 100}, {25, 125}, {50, 150}, {75, 175}, {100, 200}, {999, 200},
	}
	for _, c := range cases {
		if got := tr.At(c.x); math.Abs(float64(got)-c.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestEnergyRamp(t *testing.T) {
	tr := rampTrace(t)
	e, err := tr.Energy()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(e)-15000) > 1e-9 { // avg 150 W × 100 s
		t.Errorf("Energy = %v, want 15000 J", e)
	}
	avg, err := tr.Average()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(avg)-150) > 1e-12 {
		t.Errorf("Average = %v", avg)
	}
}

func TestEnergyBetweenPartial(t *testing.T) {
	tr := rampTrace(t)
	e, err := tr.EnergyBetween(25, 75)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(e)-7500) > 1e-9 { // avg 150 × 50 s
		t.Errorf("partial energy = %v", e)
	}
	// Reversed bounds are normalized.
	e2, err := tr.EnergyBetween(75, 25)
	if err != nil || e2 != e {
		t.Errorf("reversed bounds: %v, %v", e2, err)
	}
	// Zero-width window.
	e3, err := tr.EnergyBetween(40, 40)
	if err != nil || e3 != 0 {
		t.Errorf("empty window energy = %v, %v", e3, err)
	}
	// Out of range.
	if _, err := tr.EnergyBetween(-1, 50); err == nil {
		t.Error("out-of-span window accepted")
	}
}

func TestPeak(t *testing.T) {
	tr := mustTrace(t, []Sample{{0, 5}, {1, 9}, {2, 3}})
	if got := tr.Peak(); got != 9 {
		t.Errorf("Peak = %v", got)
	}
}

func TestSliceExact(t *testing.T) {
	tr := rampTrace(t)
	sub, err := tr.Slice(25, 75)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Start() != 25 || sub.End() != 75 {
		t.Errorf("slice span [%v, %v]", sub.Start(), sub.End())
	}
	avg, _ := sub.Average()
	if math.Abs(float64(avg)-150) > 1e-12 {
		t.Errorf("slice average = %v", avg)
	}
}

func TestResample(t *testing.T) {
	tr := rampTrace(t)
	rs := tr.Resample(10)
	if rs.Start() != 0 || rs.End() != 100 {
		t.Errorf("resampled span [%v, %v]", rs.Start(), rs.End())
	}
	if rs.Len() != 11 {
		t.Errorf("resampled Len = %d, want 11", rs.Len())
	}
	// A linear signal resamples exactly.
	a1, _ := tr.Average()
	a2, _ := rs.Average()
	if math.Abs(float64(a1-a2)) > 1e-9 {
		t.Errorf("resample changed average: %v vs %v", a1, a2)
	}
}

func TestScale(t *testing.T) {
	tr := rampTrace(t)
	scaled := tr.Scale(64)
	avg, _ := scaled.Average()
	if math.Abs(float64(avg)-150*64) > 1e-9 {
		t.Errorf("scaled average = %v", avg)
	}
	// Original untouched.
	orig, _ := tr.Average()
	if float64(orig) != 150 {
		t.Errorf("Scale mutated original: %v", orig)
	}
}

func TestSegmentValidation(t *testing.T) {
	if err := (Segment{0.2, 0.1}).Validate(); err == nil {
		t.Error("inverted segment accepted")
	}
	if err := (Segment{-0.1, 0.5}).Validate(); err == nil {
		t.Error("negative segment accepted")
	}
	if err := FullCore.Validate(); err != nil {
		t.Errorf("FullCore invalid: %v", err)
	}
}

func TestSegmentWindow(t *testing.T) {
	a, b := First20.Window(100, 200)
	if a != 100 || b != 120 {
		t.Errorf("First20 window = (%v, %v)", a, b)
	}
	a, b = Middle80.Window(0, 1000)
	if a != 100 || b != 900 {
		t.Errorf("Middle80 window = (%v, %v)", a, b)
	}
}

func TestSegmentsOnRamp(t *testing.T) {
	tr := rampTrace(t)
	rep, err := Segments(tr)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(rep.Core)-150) > 1e-12 {
		t.Errorf("core = %v", rep.Core)
	}
	if math.Abs(float64(rep.First20)-110) > 1e-12 { // avg of 100..120
		t.Errorf("first20 = %v", rep.First20)
	}
	if math.Abs(float64(rep.Last20)-190) > 1e-12 { // avg of 180..200
		t.Errorf("last20 = %v", rep.Last20)
	}
	if rep.Duration != 100 {
		t.Errorf("duration = %v", rep.Duration)
	}
	// Spread: (190-110)/150.
	if math.Abs(rep.MaxSpread()-80.0/150) > 1e-12 {
		t.Errorf("MaxSpread = %v", rep.MaxSpread())
	}
}

// Property: for any trace, energy over [a,b] plus [b,c] equals [a,c].
func TestQuickEnergyAdditive(t *testing.T) {
	tr := rampTrace(t)
	f := func(aRaw, bRaw, cRaw uint16) bool {
		a := float64(aRaw) / 655.35
		b := float64(bRaw) / 655.35
		c := float64(cRaw) / 655.35
		if a > b {
			a, b = b, a
		}
		if b > c {
			b, c = c, b
		}
		if a > b {
			a, b = b, a
		}
		e1, err1 := tr.EnergyBetween(a, b)
		e2, err2 := tr.EnergyBetween(b, c)
		e3, err3 := tr.EnergyBetween(a, c)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		return math.Abs(float64(e1+e2-e3)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: average over any window lies between trace min and max power.
func TestQuickAverageBounded(t *testing.T) {
	tr := mustTrace(t, []Sample{{0, 100}, {3, 180}, {7, 90}, {10, 140}})
	f := func(aRaw, bRaw uint16) bool {
		a := float64(aRaw) / 6553.5
		b := float64(bRaw) / 6553.5
		avg, err := tr.AverageBetween(a, b)
		if err != nil {
			return false
		}
		return avg >= 90-1e-9 && avg <= 180+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkTraceEnergy(b *testing.B) {
	samples := make([]Sample, 100000)
	for i := range samples {
		samples[i] = Sample{Time: float64(i), Power: Watts(100 + i%50)}
	}
	tr, _ := NewTrace(samples)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Energy(); err != nil {
			b.Fatal(err)
		}
	}
}
