package meter

import (
	"errors"
	"math"
	"testing"

	"nodevar/internal/power"
	"nodevar/internal/rng"
)

func flatTrace(t *testing.T, watts float64, dur float64) *power.Trace {
	t.Helper()
	var samples []power.Sample
	for x := 0.0; x <= dur; x += 1 {
		samples = append(samples, power.Sample{Time: x, Power: power.Watts(watts)})
	}
	tr, err := power.NewTrace(samples)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{GainErrorCV: -0.1},
		{GainErrorCV: 0.5},
		{NoiseCV: -1},
		{NoiseCV: 0.5},
		{ResolutionWatts: -1},
		{SamplePeriod: -1},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
	if err := Reference.Validate(); err != nil {
		t.Errorf("Reference spec invalid: %v", err)
	}
}

func TestReferenceMeterIsExact(t *testing.T) {
	tr := flatTrace(t, 500, 100)
	m, err := New(Reference, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if m.gain != 1 {
		t.Errorf("reference gain = %v", m.gain)
	}
	avg, err := m.AveragePower(tr, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if float64(avg) != 500 {
		t.Errorf("reference average = %v", avg)
	}
	e, err := m.Energy(tr, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if float64(e) != 50000 {
		t.Errorf("reference energy = %v", e)
	}
}

func TestGainErrorIsFixedPerInstrument(t *testing.T) {
	spec := Spec{GainErrorCV: 0.01, SamplePeriod: 1}
	m, err := New(spec, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	tr := flatTrace(t, 1000, 50)
	a1, _ := m.AveragePower(tr, 0, 50)
	a2, _ := m.AveragePower(tr, 0, 50)
	if a1 != a2 {
		t.Errorf("gain drifted between measurements: %v vs %v", a1, a2)
	}
	if math.Abs(float64(a1)-1000*m.gain) > 1e-9 {
		t.Errorf("average %v inconsistent with gain %v", a1, m.gain)
	}
}

func TestGainDistributionAcrossInstruments(t *testing.T) {
	r := rng.New(3)
	spec := Spec{GainErrorCV: 0.01, SamplePeriod: 1}
	var gains []float64
	for i := 0; i < 2000; i++ {
		m, err := New(spec, r)
		if err != nil {
			t.Fatal(err)
		}
		gains = append(gains, m.gain)
	}
	var mean, ss float64
	for _, g := range gains {
		mean += g
	}
	mean /= float64(len(gains))
	for _, g := range gains {
		ss += (g - mean) * (g - mean)
	}
	sd := math.Sqrt(ss / float64(len(gains)-1))
	if math.Abs(mean-1) > 0.002 {
		t.Errorf("gain mean = %v", mean)
	}
	if math.Abs(sd-0.01) > 0.002 {
		t.Errorf("gain sd = %v, want ~0.01", sd)
	}
}

func TestNoiseAveragesOut(t *testing.T) {
	spec := Spec{NoiseCV: 0.02, SamplePeriod: 1}
	m, err := New(spec, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	tr := flatTrace(t, 800, 5000)
	avg, err := m.AveragePower(tr, 0, 5000)
	if err != nil {
		t.Fatal(err)
	}
	// 5000 noisy samples: standard error ~ 800*0.02/√5000 ≈ 0.23 W.
	if math.Abs(float64(avg)-800) > 1.5 {
		t.Errorf("noisy average = %v, want ~800", avg)
	}
}

func TestQuantization(t *testing.T) {
	spec := Spec{ResolutionWatts: 10, SamplePeriod: 1}
	m, err := New(spec, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	tr := flatTrace(t, 503, 10)
	measured, err := m.Measure(tr, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range measured.Samples() {
		if float64(s.Power) != 500 {
			t.Errorf("quantized reading = %v, want 500", s.Power)
		}
	}
}

func TestMeasureWindowChecks(t *testing.T) {
	m, err := New(Reference, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	tr := flatTrace(t, 100, 10)
	if _, err := m.Measure(tr, 5, 5); err == nil {
		t.Error("empty window accepted")
	}
	if _, err := m.Measure(tr, -1, 5); err == nil {
		t.Error("window before trace accepted")
	}
	if _, err := m.Measure(tr, 5, 11); err == nil {
		t.Error("window after trace accepted")
	}
}

func TestMeasureSampleCount(t *testing.T) {
	m, err := New(Spec{SamplePeriod: 2}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	tr := flatTrace(t, 100, 10)
	measured, err := m.Measure(tr, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Samples at 0,2,4,6,8 plus the final boundary at 10.
	if measured.Len() != 6 {
		t.Errorf("sample count = %d, want 6", measured.Len())
	}
}

func TestEnergyAppliesGainOnly(t *testing.T) {
	r := rng.New(8)
	spec := Spec{GainErrorCV: 0.02, NoiseCV: 0.05, SamplePeriod: 1}
	m, err := New(spec, r)
	if err != nil {
		t.Fatal(err)
	}
	tr := flatTrace(t, 1000, 100)
	e, err := m.Energy(tr, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	want := 100000 * m.gain
	if math.Abs(float64(e)-want) > 1e-9 {
		t.Errorf("integrated energy = %v, want %v (noise must not apply)", e, want)
	}
}

func TestNegativeReadingsClampToZero(t *testing.T) {
	// Huge noise on a tiny signal must not produce negative power.
	spec := Spec{NoiseCV: 0.1, SamplePeriod: 1}
	m, err := New(spec, rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	tr := flatTrace(t, 0.001, 1000)
	measured, err := m.Measure(tr, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range measured.Samples() {
		if s.Power < 0 {
			t.Fatalf("negative reading %v", s.Power)
		}
	}
}

func TestSpecValidateRejectsNonFinite(t *testing.T) {
	nan := math.NaN()
	inf := math.Inf(1)
	bad := []Spec{
		{SamplePeriod: nan},
		{SamplePeriod: inf},
		{GainErrorCV: nan, SamplePeriod: 1},
		{NoiseCV: nan, SamplePeriod: 1},
		{ResolutionWatts: inf, SamplePeriod: 1},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("non-finite spec %d accepted", i)
		}
	}
}

// TestMeasureGridNoDrift is the regression test for the accumulating
// sample clock: with period 0.1 over a long window, x += period drifted
// off the a+i*period grid within a few thousand samples and emitted a
// near-duplicate penultimate sample just below b. Every reported time
// must be bit-identical to a + i*period.
func TestMeasureGridNoDrift(t *testing.T) {
	const dur = 100000.0
	period := 0.1
	m, err := New(Spec{SamplePeriod: period}, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	tr := flatTrace(t, 100, dur)
	measured, err := m.Measure(tr, 0, dur)
	if err != nil {
		t.Fatal(err)
	}
	samples := measured.Samples()
	last := samples[len(samples)-1]
	if last.Time != dur {
		t.Fatalf("final sample at %v, want %v", last.Time, dur)
	}
	for i, s := range samples[:len(samples)-1] {
		want := 0 + float64(i)*period
		if s.Time != want {
			t.Fatalf("sample %d at %v, want exactly %v (grid drift)", i, s.Time, want)
		}
	}
	// No near-duplicate penultimate sample: the gap before the endpoint
	// must be a meaningful fraction of a period, not accumulated float
	// fuzz.
	gap := last.Time - samples[len(samples)-2].Time
	if gap < period/2 {
		t.Fatalf("penultimate sample %v from endpoint (< period/2 = %v)", gap, period/2)
	}
}

// TestMeasureNonIntegerPeriodLongWindow pins exact grid times and counts
// for a non-integer period over a multi-hour window: 0.3 s over 4 h is
// 48000 grid samples in [0, b) plus the endpoint.
func TestMeasureNonIntegerPeriodLongWindow(t *testing.T) {
	const dur = 4 * 3600.0
	period := 0.3
	m, err := New(Spec{SamplePeriod: period}, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	tr := flatTrace(t, 100, dur)
	measured, err := m.Measure(tr, 0, dur)
	if err != nil {
		t.Fatal(err)
	}
	// 14400/0.3 = 48000 grid points (the one at exactly b is deferred to
	// the endpoint sample), so 48000 + 1 reported samples.
	if measured.Len() != 48001 {
		t.Fatalf("sample count = %d, want 48001", measured.Len())
	}
	samples := measured.Samples()
	for i, s := range samples[:len(samples)-1] {
		if want := float64(i) * period; s.Time != want {
			t.Fatalf("sample %d at %v, want exactly %v", i, s.Time, want)
		}
	}
	if samples[len(samples)-1].Time != dur {
		t.Fatalf("final sample at %v, want %v", samples[len(samples)-1].Time, dur)
	}
}

// TestMeasureIntegerGridNoEndpointDuplicate checks the endpoint dedup on
// an exactly-divisible window: the grid point at b is deferred to the
// endpoint sample, never duplicated beside it.
func TestMeasureIntegerGridNoEndpointDuplicate(t *testing.T) {
	m, err := New(Spec{SamplePeriod: 2.5}, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	tr := flatTrace(t, 100, 10)
	measured, err := m.Measure(tr, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Grid 0, 2.5, 5, 7.5 plus endpoint 10 — not a duplicated 10.
	if measured.Len() != 5 {
		t.Fatalf("sample count = %d, want 5", measured.Len())
	}
}

// TestQuantizerRoundsHalfAwayFromZero is the regression test for the
// int64-truncation quantizer. The old float64(int64(v/q+0.5))*q idiom
// failed two ways: values whose v/q+0.5 exceeds int64 range collapsed
// to an implementation-defined integer (0 on amd64) instead of the
// nearest step, and negative excursions rounded half-up instead of half
// away from zero.
func TestQuantizerRoundsHalfAwayFromZero(t *testing.T) {
	r := rng.New(14)
	cases := []struct {
		v, q, want float64
	}{
		{v: 503, q: 10, want: 500},
		{v: 505, q: 10, want: 510},      // half rounds away from zero
		{v: 2e16, q: 0.001, want: 2e16}, // old int64 path overflowed to 0
		{v: 0.0004, q: 0.001, want: 0},
		{v: 0.0005, q: 0.001, want: 0.001},
		{v: -3, q: 10, want: 0}, // negative rounds toward 0 step, then clamps
	}
	for _, c := range cases {
		got := float64(pipeline(c.v, 1, 0, c.q, r))
		if got != c.want {
			t.Errorf("pipeline(%v, q=%v) = %v, want %v", c.v, c.q, got, c.want)
		}
	}
	// Negative zero never leaks out of the pipeline: a tiny negative
	// value rounds to -0 under math.Round; the clamp must normalize it.
	if got := float64(pipeline(-1e-300, 1, 0, 0.001, r)); math.Signbit(got) {
		t.Errorf("pipeline leaked negative zero")
	}
}

func TestMeasureRejectsPathologicalPeriod(t *testing.T) {
	m, err := New(Spec{SamplePeriod: 1e-9}, rng.New(15))
	if err != nil {
		t.Fatal(err)
	}
	tr := flatTrace(t, 100, 1000)
	if _, err := m.Measure(tr, 0, 1000); err == nil {
		t.Error("window needing 1e12 samples accepted")
	}
}

// failingInstrument always errors, standing in for a meter whose PDU
// went dark.
type failingInstrument struct{}

func (failingInstrument) AveragePower(tr *power.Trace, a, b float64) (power.Watts, error) {
	return 0, errTestDark
}

var errTestDark = errors.New("meter dark")
