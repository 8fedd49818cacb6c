package meter

import (
	"math"
	"testing"

	"nodevar/internal/power"
	"nodevar/internal/rng"
)

// spikeTrace carries a flat base with one short rectangular spike: the
// transient shape intermittent sampling mischaracterizes.
func spikeTrace(t *testing.T, base, spike float64, spikeAt, spikeLen, dur float64) *power.Trace {
	t.Helper()
	var samples []power.Sample
	add := func(x, w float64) {
		samples = append(samples, power.Sample{Time: x, Power: power.Watts(w)})
	}
	for x := 0.0; x <= dur; x += 1 {
		switch {
		case x < spikeAt || x >= spikeAt+spikeLen:
			add(x, base)
		default:
			add(x, spike)
		}
	}
	tr, err := power.NewTrace(samples)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestModelNames(t *testing.T) {
	models := []Model{Reference, WindowedSpec{Period: 10, Window: 1}, OCCSpec{BucketSeconds: 1}}
	want := []string{"periodic", "windowed", "occ"}
	for i, m := range models {
		if m.ModelName() != want[i] {
			t.Errorf("model %d name = %q, want %q", i, m.ModelName(), want[i])
		}
		if err := m.Validate(); err != nil {
			t.Errorf("model %q invalid: %v", want[i], err)
		}
		inst, err := m.NewInstrument(rng.New(uint64(i) + 1))
		if err != nil {
			t.Fatalf("model %q instrument: %v", want[i], err)
		}
		if inst == nil {
			t.Fatalf("model %q returned nil instrument", want[i])
		}
	}
}

func TestWindowedSpecValidate(t *testing.T) {
	bad := []WindowedSpec{
		{},                            // Period 0
		{Period: -1},                  // negative period
		{Period: 10, Window: -1},      // negative window
		{Period: 10, Window: 11},      // window exceeds period
		{Period: math.NaN()},          // non-finite
		{Period: 10, NoiseCV: 0.5},    // noise out of range
		{Period: 10, GainErrorCV: -1}, // gain out of range
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad windowed spec %d accepted", i)
		}
	}
	good := WindowedSpec{Period: 10, Window: 1, PhaseJitter: true, NoiseCV: 0.005, ResolutionWatts: 1}
	if err := good.Validate(); err != nil {
		t.Errorf("good windowed spec rejected: %v", err)
	}
}

func TestOCCSpecValidate(t *testing.T) {
	bad := []OCCSpec{
		{},                                    // bucket 0
		{BucketSeconds: -1},                   // negative bucket
		{BucketSeconds: math.Inf(1)},          // non-finite
		{BucketSeconds: 1, EnvelopeFrac: 0.5}, // envelope out of range
		{BucketSeconds: 1, GainErrorCV: 0.5},  // gain out of range
		{BucketSeconds: 1, ReadoutResolutionWatts: -1},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad occ spec %d accepted", i)
		}
	}
	good := OCCSpec{BucketSeconds: 1, GainErrorCV: 0.01, EnvelopeFrac: 0.005, ReadoutResolutionWatts: 2}
	if err := good.Validate(); err != nil {
		t.Errorf("good occ spec rejected: %v", err)
	}
}

// TestWindowedExactOnFlat pins the ideal windowed sampler (no noise, no
// jitter) on a flat trace: every boxcar average equals the flat level,
// so the model introduces no distortion when there is nothing to miss.
func TestWindowedExactOnFlat(t *testing.T) {
	spec := WindowedSpec{Period: 10, Window: 1}
	inst, err := spec.NewInstrument(rng.New(20))
	if err != nil {
		t.Fatal(err)
	}
	tr := flatTrace(t, 700, 600)
	avg, err := inst.AveragePower(tr, 0, 600)
	if err != nil {
		t.Fatal(err)
	}
	if float64(avg) != 700 {
		t.Errorf("windowed average on flat trace = %v, want 700", avg)
	}
	e, err := inst.Energy(tr, 0, 600)
	if err != nil {
		t.Fatal(err)
	}
	if float64(e) != 700*600 {
		t.Errorf("windowed energy on flat trace = %v, want %v", e, 700.0*600)
	}
}

// TestWindowedGridTimes pins the read grid: with phase jitter disabled
// reads land exactly at a + i*Period.
func TestWindowedGridTimes(t *testing.T) {
	spec := WindowedSpec{Period: 10, Window: 1}
	inst, err := spec.NewInstrument(rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	tr := flatTrace(t, 700, 600)
	measured, err := inst.Measure(tr, 0, 600)
	if err != nil {
		t.Fatal(err)
	}
	// Reads at 0, 10, ..., 600: the read landing exactly on b is a
	// legitimate final read, so 61 samples.
	if measured.Len() != 61 {
		t.Fatalf("windowed sample count = %d, want 61", measured.Len())
	}
	for i, s := range measured.Samples() {
		if want := float64(i) * 10; s.Time != want {
			t.Fatalf("read %d at %v, want exactly %v", i, s.Time, want)
		}
	}
}

// TestWindowedMissesTransient is the architectural contrast: a short
// high-power spike landing between read windows is invisible to the
// intermittent sampler but fully captured by the OCC's continuous
// accumulation.
func TestWindowedMissesTransient(t *testing.T) {
	// 2 s, +1000 W spike at t=303 on a 500 W base over 1000 s: true
	// average is 500 + 1000*2/1000 = 502 W.
	tr := spikeTrace(t, 500, 1500, 303, 2, 1000)

	// Reads every 10 s averaging the trailing 1 s: the spike at
	// [303, 305) is never inside a window [10k-1, 10k].
	wInst, err := WindowedSpec{Period: 10, Window: 1}.NewInstrument(rng.New(22))
	if err != nil {
		t.Fatal(err)
	}
	wAvg, err := wInst.AveragePower(tr, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if float64(wAvg) != 500 {
		t.Errorf("windowed sampler saw the transient: %v, want 500", wAvg)
	}

	// The OCC accumulates everything: its average matches the true one.
	oInst, err := OCCSpec{BucketSeconds: 1}.NewInstrument(rng.New(23))
	if err != nil {
		t.Fatal(err)
	}
	oAvg, err := oInst.AveragePower(tr, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	trueAvg, err := tr.AverageBetween(0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(oAvg)-float64(trueAvg)) > 1e-9 {
		t.Errorf("occ average = %v, want true %v", oAvg, trueAvg)
	}
}

// TestWindowedPhaseJitterIsPerInstrument checks that jittered instruments
// get distinct, fixed phases in [0, Period).
func TestWindowedPhaseJitterIsPerInstrument(t *testing.T) {
	spec := WindowedSpec{Period: 10, Window: 1, PhaseJitter: true}
	r := rng.New(24)
	a, err := spec.NewInstrument(r)
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.NewInstrument(r)
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := a.(*WindowedMeter).phase, b.(*WindowedMeter).phase
	if pa < 0 || pa >= 10 || pb < 0 || pb >= 10 {
		t.Fatalf("phases %v, %v outside [0, 10)", pa, pb)
	}
	if pa == pb {
		t.Error("two instruments drew identical phases")
	}
	tr := flatTrace(t, 100, 600)
	measured, err := a.Measure(tr, 0, 600)
	if err != nil {
		t.Fatal(err)
	}
	samples := measured.Samples()
	// First sample anchors the window start; subsequent reads sit on the
	// phase-shifted grid.
	if samples[0].Time != 0 {
		t.Errorf("first sample at %v, want window-start anchor 0", samples[0].Time)
	}
	if samples[1].Time != pa {
		t.Errorf("first grid read at %v, want phase %v", samples[1].Time, pa)
	}
}

// TestWindowedDegenerateTinyWindow: a window shorter than one period
// still yields a well-formed two-sample trace.
func TestWindowedDegenerateTinyWindow(t *testing.T) {
	spec := WindowedSpec{Period: 60, Window: 5, PhaseJitter: true}
	inst, err := spec.NewInstrument(rng.New(25))
	if err != nil {
		t.Fatal(err)
	}
	tr := flatTrace(t, 400, 100)
	measured, err := inst.Measure(tr, 10, 12)
	if err != nil {
		t.Fatal(err)
	}
	if measured.Len() < 2 {
		t.Fatalf("degenerate window yielded %d samples", measured.Len())
	}
	avg, err := measured.Average()
	if err != nil {
		t.Fatal(err)
	}
	if float64(avg) != 400 {
		t.Errorf("degenerate-window average = %v, want 400", avg)
	}
}

// TestOCCExactWithoutErrors pins the ideal OCC (no gain error, no
// envelope, no read-out quantization): bucketed accumulation reproduces
// the true average and energy exactly, including a partial final bucket.
func TestOCCExactWithoutErrors(t *testing.T) {
	tr := spikeTrace(t, 500, 900, 100, 50, 1000)
	inst, err := OCCSpec{BucketSeconds: 7}.NewInstrument(rng.New(26))
	if err != nil {
		t.Fatal(err)
	}
	// 303.5 is not a multiple of 7: the final bucket is partial.
	avg, err := inst.AveragePower(tr, 0, 303.5)
	if err != nil {
		t.Fatal(err)
	}
	want, err := tr.AverageBetween(0, 303.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(avg)-float64(want)) > 1e-9 {
		t.Errorf("occ average = %v, want %v", avg, want)
	}
	e, err := inst.Energy(tr, 0, 303.5)
	if err != nil {
		t.Fatal(err)
	}
	wantE, err := tr.EnergyBetween(0, 303.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(e)-float64(wantE)) > 1e-6 {
		t.Errorf("occ energy = %v, want %v", e, wantE)
	}
}

// TestOCCEnvelopeBounded: per-reading error stays inside the declared
// envelope around the instrument's gain.
func TestOCCEnvelopeBounded(t *testing.T) {
	spec := OCCSpec{BucketSeconds: 1, GainErrorCV: 0.01, EnvelopeFrac: 0.005}
	r := rng.New(27)
	inst, err := spec.NewInstrument(r)
	if err != nil {
		t.Fatal(err)
	}
	occ := inst.(*OCCMeter)
	tr := flatTrace(t, 1000, 2000)
	measured, err := inst.Measure(tr, 0, 2000)
	if err != nil {
		t.Fatal(err)
	}
	lo := 1000 * occ.gain * (1 - spec.EnvelopeFrac)
	hi := 1000 * occ.gain * (1 + spec.EnvelopeFrac)
	for _, s := range measured.Samples() {
		if float64(s.Power) < lo-1e-9 || float64(s.Power) > hi+1e-9 {
			t.Fatalf("reading %v outside envelope [%v, %v]", s.Power, lo, hi)
		}
	}
	// The envelope is an error band, not a constant offset: readings vary.
	samples := measured.Samples()
	varied := false
	for _, s := range samples[1:] {
		if s.Power != samples[0].Power {
			varied = true
			break
		}
	}
	if !varied {
		t.Error("envelope draw identical across all buckets")
	}
}

// TestOCCReadoutQuantization: the external register is coarse even when
// the accumulation is exact.
func TestOCCReadoutQuantization(t *testing.T) {
	inst, err := OCCSpec{BucketSeconds: 1, ReadoutResolutionWatts: 2}.NewInstrument(rng.New(28))
	if err != nil {
		t.Fatal(err)
	}
	tr := flatTrace(t, 501.3, 100)
	measured, err := inst.Measure(tr, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range measured.Samples() {
		if float64(s.Power) != 502 {
			t.Fatalf("quantized read-out = %v, want 502", s.Power)
		}
	}
}

// TestModelDeterminism: same seed, same spec — every model reports
// bit-identical results.
func TestModelDeterminism(t *testing.T) {
	models := []Model{
		Spec{GainErrorCV: 0.01, NoiseCV: 0.005, ResolutionWatts: 1, SamplePeriod: 1},
		WindowedSpec{Period: 10, Window: 1, PhaseJitter: true, NoiseCV: 0.005, ResolutionWatts: 1},
		OCCSpec{BucketSeconds: 1, GainErrorCV: 0.01, EnvelopeFrac: 0.005, ReadoutResolutionWatts: 2},
	}
	tr := spikeTrace(t, 500, 800, 100, 30, 600)
	for _, mod := range models {
		run := func() (power.Watts, power.Joules) {
			inst, err := mod.NewInstrument(rng.New(99))
			if err != nil {
				t.Fatal(err)
			}
			avg, err := inst.AveragePower(tr, 0, 600)
			if err != nil {
				t.Fatal(err)
			}
			e, err := inst.Energy(tr, 0, 600)
			if err != nil {
				t.Fatal(err)
			}
			return avg, e
		}
		a1, e1 := run()
		a2, e2 := run()
		if a1 != a2 || e1 != e2 {
			t.Errorf("model %q not deterministic: %v/%v vs %v/%v",
				mod.ModelName(), a1, e1, a2, e2)
		}
	}
}
